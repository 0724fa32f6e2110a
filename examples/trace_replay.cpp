// Trace record & replay: capture a live YCSB stream into a CSV trace, reload
// it, and re-run the KeyDB experiment from the trace — demonstrating that
// experiments are reproducible artefacts (the spirit of the paper's
// open-sourced data and configurations).
//
// Usage: ./build/examples/trace_replay [trace.csv]
//   With a path: writes the captured trace there and replays from disk.
//   Without: round-trips through memory.
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/core/cxl_explorer.h"
#include "src/workload/trace.h"

namespace {

using namespace cxl;

constexpr uint64_t kRecords = 4'000'000;

// One KeyDB cell on a 1:1 MMEM/CXL interleave, driven by `source`.
apps::kv::KvServerSim::Result RunOnce(workload::OpSource& source) {
  core::KeyDbExperimentOptions opt;
  opt.dataset_bytes = kRecords * opt.value_bytes;
  opt.total_ops = 80'000;
  opt.warmup_ops = 20'000;
  auto run = core::RunKvCell(core::MakeKvCell(core::CapacityConfig::kInterleave11, opt),
                             source, opt.env);
  if (!run.ok()) {
    std::cerr << "store: " << run.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(run->server);
}

}  // namespace

int main(int argc, char** argv) {
  // 1. Live run, recording the op stream.
  workload::YcsbGenerator gen(workload::YcsbWorkload::kA, kRecords, /*seed=*/2024);
  workload::AccessTrace trace;
  workload::RecordingSource recorder(gen, trace);
  const auto live = RunOnce(recorder);
  std::cout << "live run:   " << FormatDouble(live.throughput_kops, 2) << " kops/s, p99 "
            << FormatDouble(live.all_latency_us.p99(), 1) << " us, " << trace.size()
            << " ops recorded\n";

  // 2. Persist + reload (file if a path was given, else via a string).
  workload::AccessTrace reloaded;
  if (argc > 1) {
    {
      std::ofstream out(argv[1]);
      if (!out) {
        std::cerr << "cannot write " << argv[1] << "\n";
        return 1;
      }
      trace.SaveCsv(out);
    }
    std::ifstream in(argv[1]);
    auto loaded = workload::AccessTrace::LoadCsv(in);
    if (!loaded.ok()) {
      std::cerr << "reload failed: " << loaded.status().ToString() << "\n";
      return 1;
    }
    reloaded = std::move(loaded).value();
    std::cout << "trace saved to " << argv[1] << " and reloaded ("
              << reloaded.size() << " ops)\n";
  } else {
    std::stringstream buffer;
    trace.SaveCsv(buffer);
    auto loaded = workload::AccessTrace::LoadCsv(buffer);
    if (!loaded.ok()) {
      std::cerr << "round-trip failed: " << loaded.status().ToString() << "\n";
      return 1;
    }
    reloaded = std::move(loaded).value();
  }

  // 3. Replay: identical op stream -> identical experiment result.
  workload::TraceReplaySource replay(reloaded);
  const auto replayed = RunOnce(replay);
  std::cout << "replay run: " << FormatDouble(replayed.throughput_kops, 2) << " kops/s, p99 "
            << FormatDouble(replayed.all_latency_us.p99(), 1) << " us\n";

  const double delta =
      std::abs(replayed.throughput_kops - live.throughput_kops) / live.throughput_kops;
  std::cout << "throughput delta: " << FormatDouble(100.0 * delta, 4) << "%\n";
  // The op streams are bit-identical; the tiny residual comes from the
  // replay estimating the read:write mix empirically from the trace instead
  // of using the generator's nominal 50/50 (it shifts the idle-latency blend
  // by a fraction of a nanosecond).
  return delta < 5e-3 ? 0 : 1;
}
