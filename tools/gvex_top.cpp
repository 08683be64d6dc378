// gvex_top — a live terminal view over a running gvex_netserve. Each tick
// opens a fresh connection, issues `metrics` + `health`, and renders a
// per-verb table (request rate, error rate, p50/p99 execute latency)
// computed by DIFFING consecutive scrapes of the monotonic counters and
// histogram buckets — the same exposition text a Prometheus scraper sees,
// so what gvex_top shows is exactly what dashboards would show.
//
// Usage:
//   gvex_top [--host 127.0.0.1] (--port N | --port-file path)
//            [--interval 1.0] [--count 0] [--once 1]
//
// --count 0 runs until interrupted; --once (or --count 1) prints a single
// snapshot (cumulative totals — rates need two scrapes) and exits, which
// is the shape scripts and the smoke test use. Exit status is non-zero
// when the server cannot be reached or answers garbage.

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "tool_args.h"
#include "util/string_util.h"

using namespace gvex;

namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    out.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: gvex_top [--host 127.0.0.1] (--port N | --port-file "
               "path)\n"
               "                [--interval 1.0] [--count 0] [--once 1]\n");
  return 1;
}

// One TCP round trip: connect, send the request text, read to EOF.
bool Exchange(const std::string& host, int port, const std::string& request,
              std::string* response, std::string* error) {
  const Result<int> connected = ConnectTcp(host, port);
  if (!connected.ok()) {
    *error = connected.status().ToString();
    return false;
  }
  const int fd = connected.value();
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      *error = std::string("send: ") + ::strerror(errno);
      ::close(fd);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  response->clear();
  char buf[64 << 10];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      response->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  return true;
}

// Per-verb monotonic state parsed out of one exposition text.
struct VerbStats {
  double total = 0;
  double errors = 0;
  double hist_count = 0;
  /// (le seconds, cumulative count) — ascending; +Inf as a huge finite.
  std::vector<std::pair<double, double>> buckets;
};

struct Scrape {
  std::map<std::string, VerbStats> verbs;
  double uptime_sec = 0;
  double live_sessions = 0;
  bool have_role = false;     ///< saw gvex_service_replica
  bool replica = false;       ///< gvex_service_replica != 0
  bool have_lag = false;      ///< saw the replication lag gauges
  double lag_epochs = 0;
  double lag_bytes = 0;
  std::string health_overall;                ///< "" if health missing
  std::vector<std::string> health_lines;     ///< verbatim "check ..." rows
  std::chrono::steady_clock::time_point when;
};

// Parses `name{k="v",...} value` (or bare `name value`). Returns false on
// comments/blank/other lines.
bool ParseSample(const std::string& line, std::string* name,
                 std::map<std::string, std::string>* labels, double* value) {
  if (line.empty() || line[0] == '#') return false;
  const size_t space = line.rfind(' ');
  if (space == std::string::npos) return false;
  try {
    *value = std::stod(line.substr(space + 1));
  } catch (...) {
    return false;
  }
  std::string head = line.substr(0, space);
  labels->clear();
  const size_t brace = head.find('{');
  if (brace != std::string::npos) {
    std::string body = head.substr(brace + 1);
    if (!body.empty() && body.back() == '}') body.pop_back();
    head = head.substr(0, brace);
    size_t pos = 0;
    while (pos < body.size()) {
      const size_t eq = body.find("=\"", pos);
      if (eq == std::string::npos) break;
      const size_t end = body.find('"', eq + 2);
      if (end == std::string::npos) break;
      (*labels)[body.substr(pos, eq - pos)] = body.substr(eq + 2, end - eq - 2);
      pos = end + 1;
      if (pos < body.size() && body[pos] == ',') ++pos;
    }
  }
  *name = head;
  return true;
}

// Splits the `metrics` + `health` + `quit` responses apart and parses the
// verb families gvex_top renders.
bool ParseScrape(const std::string& response, Scrape* out,
                 std::string* error) {
  out->when = std::chrono::steady_clock::now();
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
  bool saw_metrics = false;
  for (const std::string& raw : SplitLines(response)) {
    const std::string line = Trim(raw);
    if (line.rfind("ok metrics ", 0) == 0) {
      saw_metrics = true;
      continue;
    }
    if (line.rfind("ok health ", 0) == 0) {
      const auto head = SplitWhitespace(line);
      if (head.size() >= 3) out->health_overall = head[2];
      continue;
    }
    if (line.rfind("check ", 0) == 0) {
      out->health_lines.push_back(line);
      continue;
    }
    if (line.rfind("err ", 0) == 0) {
      *error = "server answered: " + line;
      return false;
    }
    if (!ParseSample(line, &name, &labels, &value)) continue;
    if (name == "gvex_process_uptime_seconds") out->uptime_sec = value;
    if (name == "gvex_net_live_sessions") out->live_sessions = value;
    if (name == "gvex_service_replica") {
      out->have_role = true;
      out->replica = value != 0;
    }
    if (name == "gvex_replication_lag_epochs") {
      out->have_lag = true;
      out->lag_epochs = value;
    }
    if (name == "gvex_replication_lag_bytes") {
      out->have_lag = true;
      out->lag_bytes = value;
    }
    const auto verb_it = labels.find("verb");
    if (verb_it == labels.end()) continue;
    VerbStats& v = out->verbs[verb_it->second];
    if (name == "gvex_requests_total") v.total = value;
    if (name == "gvex_request_errors_total") v.errors = value;
    if (name == "gvex_request_seconds_count") v.hist_count = value;
    if (name == "gvex_request_seconds_bucket") {
      const auto le_it = labels.find("le");
      if (le_it == labels.end()) continue;
      const double le = le_it->second == "+Inf"
                            ? 1e300
                            : std::atof(le_it->second.c_str());
      v.buckets.emplace_back(le, value);
    }
  }
  if (!saw_metrics) {
    *error = "no `ok metrics` response (is this a gvex_netserve?)";
    return false;
  }
  for (auto& [verb, v] : out->verbs) {
    (void)verb;
    std::sort(v.buckets.begin(), v.buckets.end());
  }
  return true;
}

// Cumulative count at `le` for a step function known only at its emitted
// points (zero-count buckets are elided from the exposition, so the value
// at the greatest emitted point <= le is exact).
double CumulativeAt(const std::vector<std::pair<double, double>>& buckets,
                    double le) {
  double cum = 0;
  for (const auto& [b_le, b_cum] : buckets) {
    if (b_le > le) break;
    cum = b_cum;
  }
  return cum;
}

// q-quantile (seconds) of the INTERVAL histogram cur - prev; 0 when the
// interval saw no observations.
double IntervalQuantile(const VerbStats& prev, const VerbStats& cur,
                        double q) {
  const double total = cur.hist_count - prev.hist_count;
  if (total <= 0) return 0;
  const double target = q * total;
  double last_le = 0;
  for (const auto& [le, cum] : cur.buckets) {
    const double diff = cum - CumulativeAt(prev.buckets, le);
    last_le = le;
    if (diff >= target) return le;
  }
  return last_le;
}

void Render(const Scrape& prev, const Scrape& cur, bool snapshot) {
  const double dt =
      std::chrono::duration<double>(cur.when - prev.when).count();
  std::printf("gvex_top  uptime %.0fs  sessions %.0f  health %s",
              cur.uptime_sec, cur.live_sessions,
              cur.health_overall.empty() ? "?" : cur.health_overall.c_str());
  if (cur.have_role) {
    std::printf("  role %s", cur.replica ? "replica" : "primary");
  }
  if (cur.have_lag) {
    std::printf("  lag %.0f epochs / %.0f bytes", cur.lag_epochs,
                cur.lag_bytes);
  }
  std::printf("\n");
  if (snapshot) {
    std::printf("%-16s %10s %10s\n", "verb", "total", "errors");
  } else {
    std::printf("%-16s %10s %10s %10s %10s %12s\n", "verb", "req/s", "err/s",
                "p50_ms", "p99_ms", "total");
  }
  for (const auto& [verb, cur_v] : cur.verbs) {
    VerbStats prev_v;
    const auto it = prev.verbs.find(verb);
    if (it != prev.verbs.end()) prev_v = it->second;
    if (snapshot) {
      if (cur_v.total == 0 && cur_v.errors == 0) continue;
      std::printf("%-16s %10.0f %10.0f\n", verb.c_str(), cur_v.total,
                  cur_v.errors);
      continue;
    }
    const double rate = dt > 0 ? (cur_v.total - prev_v.total) / dt : 0;
    const double erate = dt > 0 ? (cur_v.errors - prev_v.errors) / dt : 0;
    if (rate == 0 && erate == 0 && cur_v.total == 0) continue;
    std::printf("%-16s %10.1f %10.1f %10.3f %10.3f %12.0f\n", verb.c_str(),
                rate, erate, IntervalQuantile(prev_v, cur_v, 0.5) * 1e3,
                IntervalQuantile(prev_v, cur_v, 0.99) * 1e3, cur_v.total);
  }
  for (const std::string& line : cur.health_lines) {
    std::printf("%s\n", line.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv, 1);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return Usage();
  }
  int port = args.GetInt("port", 0);
  if (args.Has("port-file")) {
    std::ifstream f(args.Get("port-file", ""));
    if (!(f >> port)) return Fail("cannot read " + args.Get("port-file", ""));
  }
  if (port <= 0) return Usage();
  const std::string host = args.Get("host", "127.0.0.1");
  const double interval = args.GetFloat("interval", 1.0f);
  int count = args.GetInt("count", 0);
  if (args.GetInt("once", 0) != 0) count = 1;

  Scrape prev;
  bool have_prev = false;
  for (int i = 0; count == 0 || i < count; ++i) {
    if (have_prev) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
    std::string response;
    std::string error;
    if (!Exchange(host, port, "metrics\nhealth\nquit\n", &response, &error)) {
      return Fail(error);
    }
    Scrape cur;
    if (!ParseScrape(response, &cur, &error)) return Fail(error);
    if (count == 1) {
      Render(cur, cur, /*snapshot=*/true);
      return 0;
    }
    if (have_prev) {
      std::printf("\n");
      Render(prev, cur, /*snapshot=*/false);
    }
    prev = std::move(cur);
    have_prev = true;
  }
  return 0;
}
