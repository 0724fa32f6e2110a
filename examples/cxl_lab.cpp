// cxl_lab: config-file-driven experiment runner.
//
// Describe an experiment in a small `key = value` file and run it — the
// glue that makes this repository usable the way the paper's artifact
// repository is: checked-in configurations, reproducible runs.
//
//   $ cat keydb.lab
//   experiment = keydb
//   config     = 1:1          # Table 1 label
//   workload   = YCSB-A
//   dataset_gib = 16
//   ops        = 150000
//   $ ./build/examples/cxl_lab keydb.lab
//
// Experiments: keydb | vm | spark | llm | mlc | cost. Each takes the keys of
// its own table below, applied through the flag parser (src/util/flags.h):
// a key the experiment does not take, a malformed number, an unknown name
// or a ratio that is not N:M with positive integers exits 2 naming the key;
// a run that fails exits 1.
// Run with no arguments to print a self-test using built-in specs.
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "src/core/cxl_explorer.h"
#include "src/util/config.h"
#include "src/util/flags.h"

namespace {

using namespace cxl;

// Prints "cxl_lab: <message>" and exits 2: the spec cannot be run as written.
[[noreturn]] void Reject(const std::string& message) {
  std::cerr << "cxl_lab: " << message << "\n";
  std::exit(2);
}

// Applies every row of `cfg` but `experiment` through `keys`, rejecting the
// spec at a key they lack or a value they refuse.
void ApplyKeys(const Config& cfg, const std::vector<Flag>& keys) {
  for (const auto& [key, value] : cfg.values()) {
    const Flag* flag = FindFlag(keys, key);
    if (key != "experiment" && flag == nullptr) {
      std::string known;
      for (const Flag& k : keys) {
        known += (known.empty() ? "" : ", ") + k.name;
      }
      Reject("unknown key '" + key + "' (want " + known + ")");
    }
    if (flag != nullptr) {
      if (const Status applied = ApplyFlag(*flag, key, value); !applied.ok()) {
        Reject(applied.message());
      }
    }
  }
}

// Reads a ratio "N:M" of positive integers.
bool ParseRatio(const std::string& value, int* top, int* low) {
  const size_t colon = value.find(':');
  return colon != std::string::npos && ParseNumber(value.substr(0, colon), top) &&
         ParseNumber(value.substr(colon + 1), low) && *top > 0 && *low > 0;
}

Status RunKeyDbLab(const Config& cfg) {
  std::vector<std::pair<std::string, core::CapacityConfig>> configs;
  for (core::CapacityConfig c : core::AllCapacityConfigs()) {
    configs.emplace_back(core::ConfigLabel(c), c);
  }
  std::vector<std::pair<std::string, workload::YcsbWorkload>> workloads;
  for (auto w : {workload::YcsbWorkload::kA, workload::YcsbWorkload::kB,
                 workload::YcsbWorkload::kC, workload::YcsbWorkload::kD}) {
    workloads.emplace_back(workload::YcsbName(w), w);
  }
  core::CapacityConfig which = core::CapacityConfig::kMmem;
  workload::YcsbWorkload workload = workload::YcsbWorkload::kC;
  double dataset_gib = 16.0;
  core::KeyDbExperimentOptions opt;
  opt.total_ops = 150'000;
  ApplyKeys(cfg, {{"config", "LABEL", OneOf(&which, configs), "Table 1 config"},
                  {"workload", "NAME", OneOf(&workload, workloads), "YCSB mix"},
                  {"dataset_gib", "GIB", Store(&dataset_gib), "dataset size"},
                  {"ops", "N", Store(&opt.total_ops), "measured operations"},
                  {"seed", "N", Store(&opt.env.seed), "run seed"}});
  opt.dataset_bytes = static_cast<uint64_t>(dataset_gib * static_cast<double>(1ull << 30));
  opt.warmup_ops = opt.total_ops / 4;
  const auto res = core::RunKeyDbExperiment(which, workload, opt);
  if (!res.ok()) {
    return res.status();
  }
  Table t({"config", "workload", "kops/s", "p50 us", "p99 us", "DRAM share"});
  t.Row()
      .Cell(res->config_label)
      .Cell(res->workload_name)
      .Cell(res->server.throughput_kops, 1)
      .Cell(res->server.all_latency_us.p50(), 1)
      .Cell(res->server.all_latency_us.p99(), 1)
      .Cell(res->server.dram_share, 2);
  t.Print(std::cout);
  return Status::Ok();
}

Status RunVmLab(const Config& cfg) {
  double dataset_gib = 12.0;
  core::KeyDbExperimentOptions opt;
  opt.total_ops = 150'000;
  ApplyKeys(cfg, {{"dataset_gib", "GIB", Store(&dataset_gib), "dataset size"},
                  {"ops", "N", Store(&opt.total_ops), "measured operations"}});
  opt.dataset_bytes = static_cast<uint64_t>(dataset_gib * static_cast<double>(1ull << 30));
  opt.warmup_ops = opt.total_ops / 4;
  const auto res = core::RunVmCxlOnlyExperiment(opt);
  if (!res.ok()) {
    return res.status();
  }
  std::cout << "MMEM " << FormatDouble(res->mmem.server.throughput_kops, 1) << " kops/s, CXL "
            << FormatDouble(res->cxl.server.throughput_kops, 1) << " kops/s, penalty "
            << FormatDouble(100.0 * res->throughput_penalty, 1) << "%\n";
  return Status::Ok();
}

Status RunSparkLab(const Config& cfg) {
  std::vector<std::pair<std::string, std::string>> queries;
  for (const auto& q : apps::spark::TpchShuffleHeavyQueries()) {
    queries.emplace_back(q.name, q.name);
  }
  std::string query = "Q7";
  std::string mode = "MMEM";
  apps::spark::SparkConfig scfg = apps::spark::SparkConfig::MmemOnly();
  const auto set_mode = [&](const std::string& value) {
    mode = value;
    int top = 0;
    int low = 0;
    if (value == "Hot-Promote") {
      scfg = apps::spark::SparkConfig::HotPromote();
    } else if (value == "MMEM-SSD-0.2" || value == "MMEM-SSD-0.4") {
      scfg = apps::spark::SparkConfig::Spill(value == "MMEM-SSD-0.2" ? 0.8 : 0.6);
    } else if (ParseRatio(value, &top, &low)) {
      scfg = apps::spark::SparkConfig::Interleave(top, low);
    } else if (value != "MMEM") {
      return Status::InvalidArgument(
          "want MMEM, Hot-Promote, MMEM-SSD-0.2, MMEM-SSD-0.4 or N:M with positive integers");
    }
    return Status::Ok();
  };
  ApplyKeys(cfg, {{"query", "NAME", OneOf(&query, queries), "TPC-H query"},
                  {"config", "MODE", set_mode, "memory configuration"}});
  apps::spark::SparkCluster cluster(scfg);
  const auto r = cluster.RunQuery(*apps::spark::FindQuery(query));
  Table t({"query", "config", "total s", "compute s", "shuffle s", "spilled GB"});
  t.Row()
      .Cell(query)
      .Cell(mode)
      .Cell(r.total_seconds, 1)
      .Cell(r.compute_seconds, 1)
      .Cell(r.ShuffleSeconds(), 1)
      .Cell(r.spilled_bytes / 1e9, 1);
  t.Print(std::cout);
  return Status::Ok();
}

Status RunLlmLab(const Config& cfg) {
  apps::llm::LlmPlacement placement = apps::llm::LlmPlacement::MmemOnly();
  int threads = 48;
  const auto set_placement = [&placement](const std::string& value) {
    int top = 0;
    int low = 0;
    if (ParseRatio(value, &top, &low)) {
      placement = apps::llm::LlmPlacement::Interleave(top, low);
    } else if (value != "MMEM") {
      return Status::InvalidArgument("want MMEM or N:M with positive integers");
    }
    return Status::Ok();
  };
  ApplyKeys(cfg, {{"placement", "MODE", set_placement, "MMEM or N:M"},
                  {"threads", "N", Store(&threads), "serving threads"}});
  const auto pt = apps::llm::LlmInferenceSim().Solve(placement, threads);
  std::cout << placement.label << " @ " << threads
            << " threads: " << FormatDouble(pt.serving_rate_tokens_s, 1) << " tokens/s, "
            << FormatDouble(pt.mem_bandwidth_gbps, 1) << " GB/s\n";
  return Status::Ok();
}

Status RunMlcLab(const Config& cfg) {
  std::vector<std::pair<std::string, mem::MemoryPath>> paths;
  for (auto p : {mem::MemoryPath::kLocalDram, mem::MemoryPath::kRemoteDram,
                 mem::MemoryPath::kLocalCxl, mem::MemoryPath::kRemoteCxl}) {
    paths.emplace_back(mem::PathLabel(p), p);
  }
  mem::MemoryPath path = mem::MemoryPath::kLocalCxl;
  ApplyKeys(cfg, {{"path", "NAME", OneOf(&path, paths), "memory path"}});
  workload::MlcBenchmark mlc(mem::GetProfile(path));
  Table t({"offered GB/s", "achieved GB/s", "latency ns"});
  for (const auto& pt : mlc.LoadedLatencySweep(mem::AccessMix::ReadOnly(), 10)) {
    t.Row().Cell(pt.offered_gbps, 1).Cell(pt.achieved_gbps, 1).Cell(pt.latency_ns, 1);
  }
  t.Print(std::cout);
  return Status::Ok();
}

Status RunCostLab(const Config& cfg) {
  cost::CostModelParams params{10.0, 8.0, 2.0, 1.1};
  ApplyKeys(cfg, {{"rd", "X", Store(&params.r_d), "throughput, MMEM vs SSD"},
                  {"rc", "X", Store(&params.r_c), "throughput, CXL vs SSD"},
                  {"c", "X", Store(&params.c), "MMEM:CXL capacity ratio"},
                  {"rt", "X", Store(&params.r_t), "relative CXL server TCO"}});
  cost::AbstractCostModel model(params);
  if (const Status s = model.Validate(); !s.ok()) {
    return s;
  }
  std::cout << "server ratio " << FormatDouble(100.0 * model.ServerRatio(), 2) << "%, TCO saving "
            << FormatDouble(100.0 * model.TcoSaving(), 2) << "%\n";
  return Status::Ok();
}

Status RunLab(const Config& cfg) {
  const std::pair<const char*, Status (*)(const Config&)> labs[] = {
      {"keydb", RunKeyDbLab}, {"vm", RunVmLab},   {"spark", RunSparkLab},
      {"llm", RunLlmLab},     {"mlc", RunMlcLab}, {"cost", RunCostLab}};
  const std::string experiment = cfg.Has("experiment") ? cfg.values().at("experiment") : "";
  for (const auto& [name, run] : labs) {
    if (experiment == name) {
      return run(cfg);
    }
  }
  Reject("unknown experiment: '" + experiment + "' (want keydb|vm|spark|llm|mlc|cost)");
}

}  // namespace

int main(int argc, char** argv) {
  const Usage usage = ParseFlags(&argc, argv, {}, "[SPEC]");
  if (argc > 2) {
    usage.Fail("unexpected argument '" + std::string(argv[2]) + "'");
  }
  if (argc == 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      Reject("cannot open " + std::string(argv[1]));
    }
    const auto cfg = Config::Parse(in);
    if (!cfg.ok()) {
      Reject(std::string(argv[1]) + ": " + cfg.status().message());
    }
    if (const Status s = RunLab(*cfg); !s.ok()) {
      std::cerr << "experiment failed: " << s.ToString() << "\n";
      return 1;
    }
    return 0;
  }

  // Self-test: one built-in spec per experiment family.
  const char* kSpecs[] = {
      "experiment = keydb\nconfig = 1:1\nworkload = YCSB-B\ndataset_gib = 8\nops = 80000\n",
      "experiment = spark\nquery = Q7\nconfig = 3:1\n",
      "experiment = llm\nplacement = 3:1\nthreads = 60\n",
      "experiment = mlc\npath = CXL\n",
      "experiment = cost\nrd = 10\nrc = 8\nc = 2\nrt = 1.1\n",
  };
  for (const char* spec : kSpecs) {
    std::cout << "--- spec ---\n" << spec;
    const auto cfg = Config::ParseString(spec);
    if (!cfg.ok() || !RunLab(*cfg).ok()) {
      std::cerr << "self-test failed\n";
      return 1;
    }
  }
  return 0;
}
