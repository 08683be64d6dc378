#include "net/loadgen.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <random>
#include <thread>

#include "net/socket.h"
#include "util/string_util.h"

namespace gvex {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct InFlight {
  int mix_index;
  int lines_left;
  Clock::time_point t_ref;  ///< send time (saturation) or due time (paced)
  std::string response;
};

struct ConnResult {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t divergences = 0;
  bool aborted = false;
  std::vector<double> latencies_ms;
  std::map<std::string, uint64_t> responses_by_verb;
};

/// First word of a request frame — the verb label the server counts
/// under (one frame = one request in every BuildSyntheticMix entry).
std::string MixVerb(const LoadgenRequest& req) {
  const std::vector<std::string> head =
      SplitWhitespace(Trim(req.text.substr(0, req.text.find('\n'))));
  return head.empty() ? std::string("?") : head[0];
}

/// A connection for the poll loops below, which need a non-blocking fd.
Result<int> ConnectNonBlocking(const std::string& host, int port) {
  Result<int> fd = ConnectTcp(host, port);
  if (!fd.ok()) return fd;
  const Status st = SetNonBlocking(fd.value());
  if (!st.ok()) {
    ::close(fd.value());
    return st;
  }
  return fd;
}

/// One connection's whole lifetime: draw, send, receive, verify.
void RunConnection(const LoadgenOptions& opts,
                   const std::vector<LoadgenRequest>& mix, int conn_index,
                   ConnResult* out) {
  const Result<int> connected = ConnectNonBlocking(opts.host, opts.port);
  if (!connected.ok()) {
    out->aborted = true;
    return;
  }
  const int fd = connected.value();

  std::mt19937 rng(opts.seed + static_cast<unsigned>(conn_index) * 7919u);
  std::vector<double> weights;
  std::vector<std::string> verbs;
  weights.reserve(mix.size());
  verbs.reserve(mix.size());
  for (const LoadgenRequest& r : mix) {
    weights.push_back(r.weight);
    verbs.push_back(MixVerb(r));
  }
  std::discrete_distribution<int> draw(weights.begin(), weights.end());

  // Open-loop schedule: this connection owns an even share of the rate.
  const double per_conn_qps =
      opts.target_qps > 0 ? opts.target_qps / opts.connections : 0;
  const Clock::time_point t0 = Clock::now();
  auto due = [&](int i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / per_conn_qps));
  };
  // Open loop must not throttle arrivals on slow responses; the pipeline
  // cap only guards memory. Saturation mode uses the configured depth.
  const size_t max_in_flight =
      opts.target_qps > 0
          ? 4096
          : static_cast<size_t>(std::max(1, opts.pipeline_depth));

  std::string outbuf;
  size_t out_off = 0;
  std::string inbuf;
  size_t parse_off = 0;
  std::deque<InFlight> pending;
  int sent = 0;
  int completed = 0;
  Clock::time_point last_progress = Clock::now();

  while (completed < opts.requests_per_conn) {
    // Enqueue every request that is ready to go.
    while (sent < opts.requests_per_conn && pending.size() < max_in_flight &&
           (per_conn_qps == 0 || Clock::now() >= due(sent))) {
      const int mi = draw(rng);
      InFlight f;
      f.mix_index = mi;
      f.lines_left = mix[static_cast<size_t>(mi)].expect_lines;
      f.t_ref = per_conn_qps > 0 ? due(sent) : Clock::now();
      outbuf += mix[static_cast<size_t>(mi)].text;
      pending.push_back(std::move(f));
      ++sent;
    }

    struct pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    if (out_off < outbuf.size()) p.events |= POLLOUT;
    p.revents = 0;
    int timeout_ms = 100;
    if (per_conn_qps > 0 && sent < opts.requests_per_conn) {
      const double until_due =
          std::chrono::duration<double>(due(sent) - Clock::now()).count();
      timeout_ms = std::max(0, std::min(100, static_cast<int>(
                                                 until_due * 1000.0) +
                                                 1));
    }
    const int nready = ::poll(&p, 1, timeout_ms);
    if (nready < 0 && errno != EINTR) break;

    if (p.revents & POLLOUT) {
      const ssize_t n = ::send(fd, outbuf.data() + out_off,
                               outbuf.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        last_progress = Clock::now();
        if (out_off == outbuf.size()) {
          outbuf.clear();
          out_off = 0;
        }
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        break;
      }
    }

    if (p.revents & (POLLIN | POLLERR | POLLHUP)) {
      char buf[64 << 10];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        inbuf.append(buf, static_cast<size_t>(n));
        last_progress = Clock::now();
      } else if (n == 0 ||
                 (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                  errno != EINTR)) {
        break;  // server closed or reset mid-run
      }
    }

    // Consume complete lines against the in-flight queue.
    size_t nl;
    while (!pending.empty() &&
           (nl = inbuf.find('\n', parse_off)) != std::string::npos) {
      const size_t line_len = nl + 1 - parse_off;
      InFlight& f = pending.front();
      const bool first_line = f.response.empty();
      f.response.append(inbuf, parse_off, line_len);
      parse_off = nl + 1;
      if (first_line && StartsWith(f.response, "err")) {
        // Errors are always single-line: resync here regardless of the
        // expected shape, so one failure can't misframe the stream.
        f.lines_left = 1;
      }
      if (--f.lines_left > 0) continue;

      const LoadgenRequest& req = mix[static_cast<size_t>(f.mix_index)];
      if (StartsWith(f.response, "err")) {
        ++out->errors;
        if (!req.expect.empty() || !req.expect_prefix.empty()) {
          ++out->divergences;
        }
      } else if (!req.expect.empty()) {
        if (f.response != req.expect) ++out->divergences;
      } else if (!req.expect_prefix.empty()) {
        if (!StartsWith(f.response, req.expect_prefix)) ++out->divergences;
      }
      out->latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - f.t_ref)
              .count());
      ++out->responses_by_verb[verbs[static_cast<size_t>(f.mix_index)]];
      ++out->requests;
      ++completed;
      pending.pop_front();
    }
    if (parse_off > (256 << 10)) {
      inbuf.erase(0, parse_off);
      parse_off = 0;
    }

    if (SecondsSince(last_progress) > opts.timeout_sec) break;
  }

  if (completed < opts.requests_per_conn) out->aborted = true;
  ::close(fd);
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  const size_t k = static_cast<size_t>(p * (v->size() - 1));
  std::nth_element(v->begin(), v->begin() + static_cast<long>(k), v->end());
  return (*v)[k];
}

}  // namespace

Result<LoadgenReport> RunLoadgen(const LoadgenOptions& options,
                                 const std::vector<LoadgenRequest>& mix) {
  if (options.port <= 0) {
    return Status::InvalidArgument("loadgen: no port");
  }
  if (mix.empty()) {
    return Status::InvalidArgument("loadgen: empty request mix");
  }
  if (options.connections < 1 || options.requests_per_conn < 1) {
    return Status::InvalidArgument("loadgen: bad connection/request counts");
  }

  std::vector<ConnResult> results(static_cast<size_t>(options.connections));
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < options.connections; ++i) {
    threads.emplace_back(RunConnection, std::cref(options), std::cref(mix), i,
                         &results[static_cast<size_t>(i)]);
  }
  for (std::thread& t : threads) t.join();

  LoadgenReport report;
  report.elapsed_sec = SecondsSince(t0);
  std::vector<double> latencies;
  for (const ConnResult& r : results) {
    report.requests += r.requests;
    report.errors += r.errors;
    report.divergences += r.divergences;
    if (r.aborted) ++report.aborted_connections;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    for (const auto& [verb, count] : r.responses_by_verb) {
      report.responses_by_verb[verb] += count;
    }
  }
  report.qps = report.elapsed_sec > 0
                   ? static_cast<double>(report.requests) / report.elapsed_sec
                   : 0;
  report.p50_ms = Percentile(&latencies, 0.50);
  report.p99_ms = Percentile(&latencies, 0.99);
  return report;
}

Result<std::string> FetchMetrics(const std::string& host, int port,
                                 double timeout_sec) {
  const Result<int> connected = ConnectNonBlocking(host, port);
  if (!connected.ok()) {
    return Status::IOError("metrics fetch: " + connected.status().ToString());
  }
  const int fd = connected.value();
  std::string outbuf = "metrics\n";
  size_t out_off = 0;
  std::string in;
  int expected_lines = -1;
  const Clock::time_point t0 = Clock::now();
  while (true) {
    if (SecondsSince(t0) > timeout_sec) {
      ::close(fd);
      return Status::IOError("metrics fetch timed out");
    }
    struct pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    if (out_off < outbuf.size()) p.events |= POLLOUT;
    p.revents = 0;
    const int nready = ::poll(&p, 1, 100);
    if (nready < 0 && errno != EINTR) break;
    if (p.revents & POLLOUT) {
      const ssize_t n = ::send(fd, outbuf.data() + out_off,
                               outbuf.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) out_off += static_cast<size_t>(n);
    }
    if (p.revents & (POLLIN | POLLERR | POLLHUP)) {
      char buf[64 << 10];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        in.append(buf, static_cast<size_t>(n));
      } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                            errno != EINTR)) {
        break;
      }
    }
    if (expected_lines < 0) {
      const size_t nl = in.find('\n');
      if (nl != std::string::npos) {
        const std::vector<std::string> head =
            SplitWhitespace(in.substr(0, nl));
        if (head.size() != 3 || head[0] != "ok" || head[1] != "metrics" ||
            !ParseInt(head[2], &expected_lines) || expected_lines < 0) {
          ::close(fd);
          return Status::IOError("metrics fetch: unexpected header: " +
                                 in.substr(0, nl));
        }
      }
    }
    if (expected_lines >= 0 &&
        std::count(in.begin(), in.end(), '\n') >=
            static_cast<long>(expected_lines) + 1) {
      ::close(fd);
      return in.substr(in.find('\n') + 1);
    }
  }
  ::close(fd);
  return Status::IOError("metrics fetch: connection ended mid-response");
}

}  // namespace gvex
