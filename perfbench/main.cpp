// gvex_perfbench — the benchmark's measuring program. run.py drives it;
// each subcommand does one piece of a workload and writes a JSON report.
//
// Usage:
//   gvex_perfbench explain --dataset MUT|MAL --seed N --seconds S
//                  --trace 0|1 --out FILE [--spans FILE] [--corrupt K]
//   gvex_perfbench serve-prepare --seed N --dir DIR
//   gvex_perfbench serve-client --port P --server-pid PID --seed N
//                  --dir DIR --seconds S --trace 0|1 --out FILE
//                  [--spans FILE] [--corrupt K]
//
// --corrupt K (tests only) makes the Kth expected output wrong, which the
// run must count as one failed operation.

#include <cstdio>
#include <string>

#include "tool_args.h"
#include "workloads.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: gvex_perfbench <explain|serve-prepare|serve-client> "
                 "[--key value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  gvex::Args args(argc, argv, 2);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 2;
  }
  perfbench::RunOptions opt;
  opt.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  opt.seconds = args.GetFloat("seconds", 10.0f);
  opt.trace = args.GetInt("trace", 0) != 0;
  opt.corrupt = args.GetInt("corrupt", 0);
  opt.out = args.Get("out", "report.json");
  opt.spans = args.Get("spans", "spans.tsv");
  opt.dir = args.Get("dir", ".");
  opt.port = args.GetInt("port", 0);
  opt.server_pid = args.GetInt("server-pid", 0);
  if (cmd == "explain") {
    return perfbench::RunExplain(args.Get("dataset", "MUT"), opt);
  }
  if (cmd == "serve-prepare") return perfbench::PrepareServe(opt);
  if (cmd == "serve-client") return perfbench::RunServeClient(opt);
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}
