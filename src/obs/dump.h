// The dump thread shared by `--metrics-dump` and `--health-file`: a
// background PeriodicDumper whose destructor — or an explicit Final() —
// always runs ONE last dump after stopping the thread. That last point is
// the contract the drain path relies on: the final dump happens whether the
// drain completed cleanly or timed out and force-closed sessions, and it
// runs on the caller's thread so a wedged dump thread cannot swallow it.
// Each dump replaces its file through util/file_io.h AtomicWriteFile (tmp,
// fsync, rename), so scrapers never read a half-written file.

#ifndef GVEX_OBS_DUMP_H_
#define GVEX_OBS_DUMP_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace gvex {
namespace obs {

/// Runs `dump` every `interval_sec` on a background thread, plus exactly
/// one final time from Final() / the destructor after the thread stops.
/// An interval <= 0 skips the thread but keeps the final-dump contract.
class PeriodicDumper {
 public:
  PeriodicDumper(double interval_sec, std::function<void()> dump);
  ~PeriodicDumper();

  /// Stops the background thread and runs the final dump on the calling
  /// thread. Idempotent; later calls (and the destructor) are no-ops.
  void Final();

 private:
  std::function<void()> dump_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool finaled_ = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace gvex

#endif  // GVEX_OBS_DUMP_H_
