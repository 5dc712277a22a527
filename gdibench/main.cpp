// gdibench: one workload of the end-to-end benchmark per process.
//
//   gdibench <oltp_linkbench|oltp_read_intensive|olap_traverse|wire_serve> --seed N --seconds S
//            [--trace 0|1] [--tmp DIR]
//
// Prints human-readable metric lines and, last, one `GDIBENCH_RESULT {json}`
// line. Exit code 0 iff every output check passed; 2 on a failed set-up.
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  // A hung collective (a rank that left a collective early) must not hang
  // the benchmark: SIGALRM's default action ends the process non-zero.
  ::alarm(170);
  if (argc < 2) {
    std::cerr << "usage: gdibench <workload> --seed N --seconds S [--trace 0|1] "
                 "[--tmp DIR]\n";
    return 2;
  }
  const std::string workload = argv[1];
  gb::RunOpts o;
  o.tmp_dir = ".";
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (k == "--tmp") o.tmp_dir = v;
    else {
      std::cerr << "unknown option " << k << "\n";
      return 2;
    }
  }
  // Queries per rank per --seconds, so that a run takes about --seconds on
  // a 4-core host, set-ups included. LinkBench is the slower mix per query.
  if (workload == "oltp_linkbench")
    return gb::run_oltp(o, workload, gdi::work::OpMix::linkbench(), 30000, true);
  if (workload == "oltp_read_intensive")
    return gb::run_oltp(o, workload, gdi::work::OpMix::read_intensive(), 90000, false);
  if (workload == "olap_traverse") return gb::run_olap_traverse(o);
  if (workload == "wire_serve") return gb::run_wire_serve(o);
  std::cerr << "unknown workload " << workload << "\n";
  return 2;
}
