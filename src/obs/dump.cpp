#include "obs/dump.h"

#include <chrono>
#include <cstdint>
#include <utility>

namespace gvex {
namespace obs {

PeriodicDumper::PeriodicDumper(double interval_sec,
                               std::function<void()> dump)
    : dump_(std::move(dump)) {
  if (interval_sec > 0) {
    const auto interval =
        std::chrono::milliseconds(static_cast<int64_t>(interval_sec * 1000));
    thread_ = std::thread([this, interval] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        if (cv_.wait_for(lock, interval, [this] { return stop_; })) break;
        lock.unlock();
        dump_();
        lock.lock();
      }
    });
  }
}

PeriodicDumper::~PeriodicDumper() { Final(); }

void PeriodicDumper::Final() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finaled_) return;
    finaled_ = true;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // The final dump runs here, on the caller's thread, AFTER the periodic
  // thread is gone — so it reflects end state and cannot be lost to a
  // wedged background dump.
  dump_();
}

}  // namespace obs
}  // namespace gvex
