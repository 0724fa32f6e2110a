// Host-time benchmark driver.
//
// One invocation runs one repetition of a workload: a sweep of simulator
// cells through runner::RunSweep, each cell composed from the public APIs the
// way core::RunKeyDbExperiment and bench_fig7_spark_tpch compose theirs. It
// times every call into a layer from outside (setup, run, teardown) and
// prints one JSON line of host timings and per-cell digests of the simulated
// statistics. run.py repeats invocations, aggregates them and checks digests.
//
// With --trace it also attaches observational decorators — a per-cell
// telemetry::EpochProfiler and a forwarding TieringPolicy — and reports the
// per-layer breakdown, plus a Chrome trace-event file of the driver's spans
// (--trace-out). Decorators never change simulated results; --selftest
// checks that, and that the composed KV cell equals RunKeyDbExperiment.
//
// Usage:
//   hostbench --workload kv-notier|kv-hotpromote|spark-hotpromote
//             [--seed N] [--trace] [--trace-out FILE]
//   hostbench --selftest
// Malformed flags print one `error: ...` line and exit 2.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/cxl_explorer.h"
#include "src/os/page_allocator.h"
#include "src/runner/sweep.h"
#include "src/telemetry/epoch_profiler.h"
#include "src/util/units.h"

namespace {

using namespace cxl;
using Clock = std::chrono::steady_clock;
using telemetry::EpochProfiler;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// KV cell shape: bench_fig5_keydb_ycsb's 1/16-scale grid (32 GiB of 1 KiB
// records on 16 KiB pages = 2,097,152 pages per cell).
constexpr uint64_t kKvDatasetBytes = 32 * kGiB;
constexpr uint64_t kKvValueBytes = 1024;
constexpr uint64_t kKvTotalOps = 220'000;
constexpr uint64_t kKvWarmupOps = 60'000;
// Mirrors the placement granularity inside core::RunKeyDbExperiment; the
// self-test fails if the two drift apart.
constexpr uint64_t kKvPageBytes = 16 * kKiB;

// Sweep workers of a measured repetition. One worker leaves the host's other
// cores to absorb outside load, and keeps cells from competing for memory
// bandwidth and for the zeta cache's lock, so each cell's time is its own.
constexpr int kSweepJobs = 1;

// ---------------------------------------------------------------- workloads

enum class CellKind { kKv, kSpark };

struct Cell {
  CellKind kind = CellKind::kKv;
  core::CapacityConfig config = core::CapacityConfig::kMmem;
  workload::YcsbWorkload ycsb = workload::YcsbWorkload::kA;
  std::string policy;  // Tiering policy (Hot-Promote KV cells and Spark cells).
  size_t query = 0;    // Spark: index into TpchShuffleHeavyQueries().
  std::string label;
};

// The cells of one workload; empty for an unknown name. Why each workload
// exists is recorded in BENCHMARK.json.
std::vector<Cell> WorkloadCells(const std::string& name) {
  using core::CapacityConfig;
  using workload::YcsbWorkload;
  std::vector<Cell> cells;
  if (name == "kv-notier") {
    for (CapacityConfig config :
         {CapacityConfig::kMmem, CapacityConfig::kInterleave11, CapacityConfig::kMmemSsd02}) {
      for (YcsbWorkload w : {YcsbWorkload::kA, YcsbWorkload::kC, YcsbWorkload::kD}) {
        cells.push_back({CellKind::kKv, config, w, "", 0,
                         core::ConfigLabel(config) + "/" + workload::YcsbName(w)});
      }
    }
  } else if (name == "kv-hotpromote") {
    for (const char* policy : {"hot-page-selection", "mru-balancing", "tpp-like"}) {
      for (YcsbWorkload w : {YcsbWorkload::kA, YcsbWorkload::kC}) {
        cells.push_back({CellKind::kKv, CapacityConfig::kHotPromote, w, policy, 0,
                         std::string("Hot-Promote/") + policy + "/" + workload::YcsbName(w)});
      }
    }
  } else if (name == "spark-hotpromote") {
    const auto queries = apps::spark::TpchShuffleHeavyQueries();
    for (const char* policy : {"hot-page-selection", "adaptive-feedback"}) {
      for (size_t q = 0; q < queries.size(); ++q) {
        cells.push_back({CellKind::kSpark, CapacityConfig::kHotPromote, YcsbWorkload::kA, policy,
                         q, std::string("Hot-Promote/") + policy + "/" + queries[q].name});
      }
    }
  }
  return cells;
}

// ------------------------------------------------------------------ digests

// FNV-1a over the bit patterns of the simulated statistics: equal digests
// mean bit-identical results.
class Digest {
 public:
  Digest& Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return Add(bits);
  }
  Digest& Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
    return *this;
  }
  Digest& Add(const Histogram& h) {
    Add(h.count()).Add(h.sum()).Add(h.min()).Add(h.max());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      Add(h.ValueAtQuantile(q));
    }
    return *this;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t KvDigest(const apps::kv::KvServerSim::Result& r) {
  Digest d;
  d.Add(r.throughput_kops).Add(r.dram_share).Add(r.migrated_bytes).Add(r.avg_service_us);
  d.Add(r.mem_traffic_gbps).Add(r.ssd_read_gbps).Add(r.ssd_write_gbps);
  d.Add(r.read_latency_us).Add(r.update_latency_us).Add(r.all_latency_us);
  for (const auto& e : r.timeline) {
    d.Add(e.end_ms).Add(e.kops).Add(e.migrated_mb).Add(e.mean_latency_us);
  }
  return d.value();
}

uint64_t SparkDigest(const apps::spark::QueryResult& r) {
  Digest d;
  d.Add(r.compute_seconds).Add(r.shuffle_write_seconds).Add(r.shuffle_read_seconds);
  d.Add(r.total_seconds).Add(r.spilled_bytes).Add(r.migrated_bytes).Add(r.cxl_access_share);
  d.Add(static_cast<uint64_t>(r.reexecuted_partitions)).Add(r.retry_seconds);
  return d.value();
}

// ---------------------------------------------------------------- cell runs

// One span of the driver's own trace. Ids are local to the cell (index into
// its span vector); parent -1 is the cell's root.
struct Span {
  std::string name;
  double start_ms = 0.0;  // From the driver's origin.
  double dur_ms = 0.0;
  int parent = -1;
};

struct CellOut {
  Status status = Status::Ok();
  uint64_t seed = 0;
  uint64_t digest = 0;
  double sim_s = 0.0;
  double start_ms = 0.0;  // Cell start, from the driver's origin.
  // Host time of the cell's calls, timed from outside in every run.
  double setup_ms = 0.0;
  double run_ms = 0.0;
  double free_ms = 0.0;
  // Per-layer sums (traced runs; see LayerMetrics for the names).
  std::map<std::string, double> layers;
  // Decide-return -> Observe-entry time of every daemon tick, in us.
  std::vector<double> select_migrate_us;
  std::vector<Span> spans;
};

// Forwards every call to the daemon's own policy and times it from outside:
// Decide and Observe themselves (policy time), and the gap from Decide's
// return to Observe's entry — the candidate scan, cold pool, promotions and
// demotions of one tick.
class TimedPolicy final : public os::TieringPolicy {
 public:
  TimedPolicy(os::TieringPolicy& inner, const EpochProfiler& profiler)
      : inner_(inner), profiler_(profiler) {}

  const char* name() const override { return inner_.name(); }
  int32_t event_reason() const override { return inner_.event_reason(); }
  double hot_threshold() const override { return inner_.hot_threshold(); }

  os::TickDecision Decide(const os::TickContext& ctx) override {
    const auto entry = Clock::now();
    ticks_.push_back({entry, profiler_.SecondsIn(EpochProfiler::kScan), {}, {}});
    const os::TickDecision decision = inner_.Decide(ctx);
    decide_return_ = Clock::now();
    policy_ms_ += MsBetween(entry, decide_return_);
    return decision;
  }

  void Observe(const os::TickObservation& obs) override {
    const auto entry = Clock::now();
    ticks_.back().select_begin = decide_return_;
    ticks_.back().select_end = entry;
    inner_.Observe(obs);
    policy_ms_ += MsBetween(entry, Clock::now());
    candidates_ += obs.candidates;
    promoted_ += obs.promoted_pages;
    demoted_ += obs.demoted_pages;
  }

  struct Tick {
    Clock::time_point decide_entry;
    // Profiler's tick-phase total when this tick's Decide ran: the previous
    // ticks' time, so consecutive readings give each tick's duration.
    double scan_s_before = 0.0;
    Clock::time_point select_begin;
    Clock::time_point select_end;
  };
  const std::vector<Tick>& ticks() const { return ticks_; }
  double policy_ms() const { return policy_ms_; }
  uint64_t candidates() const { return candidates_; }
  uint64_t promoted() const { return promoted_; }
  uint64_t demoted() const { return demoted_; }

 private:
  os::TieringPolicy& inner_;
  const EpochProfiler& profiler_;
  std::vector<Tick> ticks_;
  Clock::time_point decide_return_;
  double policy_ms_ = 0.0;
  uint64_t candidates_ = 0;
  uint64_t promoted_ = 0;
  uint64_t demoted_ = 0;
};

// Records spans relative to the driver's origin.
class SpanRecorder {
 public:
  SpanRecorder(std::vector<Span>* spans, Clock::time_point origin)
      : spans_(spans), origin_(origin) {}
  int Add(const std::string& name, Clock::time_point begin, Clock::time_point end,
          int parent) {
    spans_->push_back({name, MsBetween(origin_, begin), MsBetween(begin, end), parent});
    return static_cast<int>(spans_->size()) - 1;
  }

 private:
  std::vector<Span>* spans_;
  Clock::time_point origin_;
};

// One KeyDB cell, composed exactly as core::RunKeyDbExperiment composes it.
CellOut RunKvCell(const Cell& cell, uint64_t seed, bool traced, Clock::time_point origin) {
  CellOut out;
  out.seed = seed;
  SpanRecorder spans(&out.spans, origin);
  const auto t_begin = Clock::now();
  out.start_ms = MsBetween(origin, t_begin);
  apps::kv::KvServerSim::Result result;
  Clock::time_point t_setup_end;
  Clock::time_point t_run_end;
  {
    const topology::Platform platform = cell.config == core::CapacityConfig::kHotPromote
                                            ? core::MakeHotPromotePlatform(kKvDatasetBytes)
                                            : topology::Platform::CxlServer(/*snc4=*/false);
    const core::CapacitySetup setup = core::MakeCapacitySetup(cell.config, platform);
    const auto t_platform = Clock::now();

    os::PageAllocator allocator(platform, kKvPageBytes);
    std::optional<os::TieredMemory> tiering;
    if (setup.hot_promote) {
      os::TieringConfig tc = core::DefaultTieringConfig();
      tc.policy = cell.policy;
      tiering.emplace(allocator, tc);
    }
    const auto t_os_ctor = Clock::now();

    apps::kv::KvStoreConfig store_cfg;
    store_cfg.record_count = kKvDatasetBytes / kKvValueBytes;
    store_cfg.value_bytes = kKvValueBytes;
    store_cfg.flash = setup.flash;
    if (setup.flash) {
      store_cfg.maxmemory_bytes =
          static_cast<uint64_t>(setup.maxmemory_fraction * static_cast<double>(kKvDatasetBytes));
    }
    os::TieredMemory* daemon = tiering.has_value() ? &*tiering : nullptr;
    auto store = apps::kv::KvStore::Create(allocator, setup.policy, store_cfg, daemon);
    const auto t_alloc = Clock::now();
    if (!store.ok()) {
      out.status = store.status();
      return out;
    }
    out.layers["os.alloc_pages"] = static_cast<double>(allocator.page_count());

    workload::YcsbGenerator gen(cell.ycsb, store_cfg.record_count, seed);
    const auto t_gen_ctor = Clock::now();

    EpochProfiler profiler;
    std::optional<TimedPolicy> timed;
    apps::kv::KvServerConfig server_cfg;
    server_cfg.total_ops = kKvTotalOps;
    server_cfg.warmup_ops = kKvWarmupOps;
    server_cfg.seed = seed;
    if (traced) {
      server_cfg.profiler = &profiler;
      if (daemon != nullptr) {
        timed.emplace(daemon->policy(), profiler);
        os::TieredMemory::Observers observers;
        observers.policy = &*timed;
        daemon->Attach(observers);
      }
    }
    apps::kv::KvServerSim sim(platform, *store, gen, server_cfg, daemon);
    t_setup_end = Clock::now();
    result = sim.Run();
    t_run_end = Clock::now();
    store->Free();

    out.layers["topology.platform_ms"] = MsBetween(t_begin, t_platform);
    out.layers["os.ctor_ms"] = MsBetween(t_platform, t_os_ctor);
    out.layers["os.alloc_ms"] = MsBetween(t_os_ctor, t_alloc);
    out.layers["workload.ctor_ms"] = MsBetween(t_alloc, t_gen_ctor);
    out.layers["kv.ctor_ms"] = MsBetween(t_gen_ctor, t_setup_end);
    out.layers["workload.ops"] = static_cast<double>(kKvTotalOps);
    if (traced) {
      const int root = -1;
      const int setup_span = spans.Add("setup", t_begin, t_setup_end, root);
      spans.Add("KvStore::Create", t_os_ctor, t_alloc, setup_span);
      spans.Add("YcsbGenerator()", t_alloc, t_gen_ctor, setup_span);
      const int run_span = spans.Add("run", t_setup_end, t_run_end, root);
      const double solver_ms = 1e3 * profiler.SecondsIn(EpochProfiler::kSolver);
      const double tick_ms = 1e3 * profiler.SecondsIn(EpochProfiler::kScan);
      out.layers["mem.solver_ms"] = solver_ms;
      out.layers["tiering.tick_ms"] = tick_ms;
      // Run minus its timed phases; workload.gen_ms is subtracted once the
      // generator replay has measured it (see MeasureGeneration).
      out.layers["kv.dispatch_ms"] = MsBetween(t_setup_end, t_run_end) - solver_ms - tick_ms -
                                     1e3 * profiler.SecondsIn(EpochProfiler::kTelemetry);
      if (timed.has_value()) {
        const auto& ticks = timed->ticks();
        double select_ms = 0.0;
        for (size_t i = 0; i < ticks.size(); ++i) {
          const double after_s = i + 1 < ticks.size() ? ticks[i + 1].scan_s_before
                                                      : profiler.SecondsIn(EpochProfiler::kScan);
          // The tick span starts at Decide's entry (the few loads before it
          // are not visible from outside) and lasts the profiled tick time.
          const auto tick_end =
              ticks[i].decide_entry + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(after_s -
                                                                        ticks[i].scan_s_before));
          const int tick_span = spans.Add("daemon tick", ticks[i].decide_entry, tick_end, run_span);
          spans.Add("select+migrate", ticks[i].select_begin, ticks[i].select_end, tick_span);
          const double us = 1e3 * MsBetween(ticks[i].select_begin, ticks[i].select_end);
          out.select_migrate_us.push_back(us);
          select_ms += us / 1e3;
        }
        const auto ticks_n = static_cast<double>(ticks.size());
        out.layers["tiering.ticks"] = ticks_n;
        out.layers["tiering.select_migrate_ms"] = select_ms;
        out.layers["tiering.policy_ms"] = timed->policy_ms();
        out.layers["tiering.decay_rest_ms"] = tick_ms - select_ms - timed->policy_ms();
        out.layers["tiering.pages_scanned"] = ticks_n * static_cast<double>(allocator.page_count());
        out.layers["tiering.candidates"] = static_cast<double>(timed->candidates());
        out.layers["tiering.promoted_pages"] = static_cast<double>(timed->promoted());
        out.layers["tiering.demoted_pages"] = static_cast<double>(timed->demoted());
      }
    }
  }  // Destroys the store, daemon and allocator: part of the free time.
  const auto t_end = Clock::now();
  out.setup_ms = MsBetween(t_begin, t_setup_end);
  out.run_ms = MsBetween(t_setup_end, t_run_end);
  out.free_ms = MsBetween(t_run_end, t_end);
  out.layers["os.free_ms"] = out.free_ms;
  if (traced) {
    spans.Add("free", t_run_end, t_end, -1);
  }
  out.digest = KvDigest(result);
  out.sim_s = result.timeline.empty() ? 0.0 : result.timeline.back().end_ms / 1e3;
  return out;
}

// One Spark query on the Hot-Promote cluster, as bench_fig7_spark_tpch runs
// its cells (the daemon is private to SparkCluster, so the breakdown stops
// at constructor / query / teardown).
CellOut RunSparkCell(const Cell& cell, uint64_t seed, bool traced, Clock::time_point origin) {
  CellOut out;
  out.seed = seed;
  SpanRecorder spans(&out.spans, origin);
  apps::spark::SparkConfig config = apps::spark::SparkConfig::HotPromote();
  config.tiering_policy = cell.policy;
  const apps::spark::QueryProfile query = apps::spark::TpchShuffleHeavyQueries()[cell.query];

  const auto t_begin = Clock::now();
  out.start_ms = MsBetween(origin, t_begin);
  std::optional<apps::spark::SparkCluster> cluster(std::in_place, config);
  const auto t_ctor = Clock::now();
  const apps::spark::QueryResult result = cluster->RunQuery(query);
  const auto t_query = Clock::now();
  cluster.reset();
  const auto t_end = Clock::now();

  out.setup_ms = MsBetween(t_begin, t_ctor);
  out.run_ms = MsBetween(t_ctor, t_query);
  out.free_ms = MsBetween(t_query, t_end);
  out.layers["spark.ctor_ms"] = out.setup_ms;
  out.layers["spark.query_ms"] = out.run_ms;
  out.layers["spark.free_ms"] = out.free_ms;
  out.layers["spark.migrated_gb"] = BytesToGBd(result.migrated_bytes);
  out.layers["spark.spilled_gb"] = BytesToGBd(result.spilled_bytes);
  if (traced) {
    spans.Add("setup", t_begin, t_ctor, -1);
    spans.Add("run", t_ctor, t_query, -1);
    spans.Add("free", t_query, t_end, -1);
  }
  out.digest = SparkDigest(result);
  out.sim_s = result.total_seconds;
  return out;
}

// ------------------------------------------------------------ one workload

struct WorkloadRun {
  std::vector<CellOut> cells;
  runner::SweepStats stats;
  double wall_ms = 0.0;  // Origin to the last cell's teardown.
};

WorkloadRun RunWorkload(const std::vector<Cell>& cells, uint64_t seed, int jobs, bool traced,
                        Clock::time_point origin) {
  runner::SweepOptions options;
  options.jobs = jobs;
  options.base_seed = seed;
  for (const Cell& cell : cells) {
    options.cell_labels.push_back(cell.label);
  }
  WorkloadRun run;
  // Cells always succeed at the sweep level and carry their own status, so
  // one failed cell does not discard the others' results.
  auto results = runner::RunSweep(
      cells,
      [traced, origin](const Cell& cell, uint64_t cell_seed) -> StatusOr<CellOut> {
        return cell.kind == CellKind::kKv ? RunKvCell(cell, cell_seed, traced, origin)
                                          : RunSparkCell(cell, cell_seed, traced, origin);
      },
      options, &run.stats);
  run.wall_ms = MsBetween(origin, Clock::now());
  run.cells = std::move(results).value();
  return run;
}

// Keeps the generator replay observable so it cannot be optimized away.
volatile uint64_t g_replay_sink = 0;

// workload.gen_ms: the generator's share of Run, measured by replaying each
// KV cell's op stream from an identical generator after the sweep (timing
// every Next() inside Run would inflate it by ~a third). Outside the traced
// wall time; moves the measured time from kv.dispatch_ms to workload.gen_ms.
void MeasureGeneration(const std::vector<Cell>& cells, WorkloadRun* run) {
  uint64_t sink = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].kind != CellKind::kKv || !run->cells[i].status.ok()) {
      continue;
    }
    workload::YcsbGenerator gen(cells[i].ycsb, kKvDatasetBytes / kKvValueBytes,
                                run->cells[i].seed);
    const auto start = Clock::now();
    for (uint64_t op = 0; op < kKvTotalOps; ++op) {
      sink += gen.Next().key;
    }
    const double ms = MsBetween(start, Clock::now());
    run->cells[i].layers["workload.gen_ms"] = ms;
    run->cells[i].layers["kv.dispatch_ms"] -= ms;
  }
  g_replay_sink = sink;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

// Layer metrics in BENCHMARK.json's per_layer names. The *_ms layers marked
// as partitioning a cell sum to its setup + run + free time; the remainder
// of the traced time is unattributed_ms.
std::map<std::string, double> LayerMetrics(const WorkloadRun& run) {
  static const char* const kPartition[] = {
      "topology.platform_ms", "os.ctor_ms",        "os.alloc_ms",     "workload.ctor_ms",
      "kv.ctor_ms",           "workload.gen_ms",   "kv.dispatch_ms",  "mem.solver_ms",
      "tiering.tick_ms",      "os.free_ms",        "spark.ctor_ms",   "spark.query_ms",
      "spark.free_ms"};
  static const char* const kOther[] = {
      "os.alloc_pages",          "workload.ops",           "tiering.ticks",
      "tiering.select_migrate_ms", "tiering.policy_ms",    "tiering.decay_rest_ms",
      "tiering.pages_scanned",   "tiering.candidates",     "tiering.promoted_pages",
      "tiering.demoted_pages",   "spark.migrated_gb",      "spark.spilled_gb"};
  std::map<std::string, double> m;
  for (const char* name : kPartition) {
    m[name] = 0.0;
  }
  for (const char* name : kOther) {
    m[name] = 0.0;
  }
  std::vector<double> select_us;
  for (const CellOut& cell : run.cells) {
    for (const auto& [name, value] : cell.layers) {
      m[name] += value;
    }
    select_us.insert(select_us.end(), cell.select_migrate_us.begin(),
                     cell.select_migrate_us.end());
  }
  double attributed = 0.0;
  for (const char* name : kPartition) {
    attributed += m[name];
  }
  m["kv.dispatch_ns_per_op"] =
      m["workload.ops"] > 0.0 ? 1e6 * m["kv.dispatch_ms"] / m["workload.ops"] : 0.0;
  std::sort(select_us.begin(), select_us.end());
  m["tiering.select_migrate_p50_us"] = select_us.empty() ? 0.0 : select_us[select_us.size() / 2];
  m["tiering.select_migrate_max_us"] = select_us.empty() ? 0.0 : select_us.back();
  m["tiering.promoted_per_scanned"] = m["tiering.pages_scanned"] > 0.0
                                          ? m["tiering.promoted_pages"] / m["tiering.pages_scanned"]
                                          : 0.0;
  m["runner.serial_ms"] = run.stats.serial_ms;
  m["runner.speedup"] = run.stats.Speedup();
  m["runner.cells"] = static_cast<double>(run.stats.cells);
  // The driver's own time outside the sweep plus cell time outside every
  // named layer. With one sweep worker serial time is wall time, so this is
  // the traced wall time minus the layers. The KV and Spark layers partition
  // each cell's setup + run + free by construction, so what remains is the
  // runner's and the driver's time between cells.
  const double unattributed = (run.wall_ms - run.stats.wall_ms) + run.stats.serial_ms - attributed;
  m["unattributed_ms"] = unattributed;
  m["unattributed_pct"] = 100.0 * unattributed / run.wall_ms;
  return m;
}

// ------------------------------------------------------------------ output

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string Fingerprint() {
  std::ostringstream os;
  os << "{\"nproc\":" << std::max(1u, std::thread::hardware_concurrency())
     << ",\"compiler\":" << JsonString(kCompiler)
     << ",\"build_type\":" << JsonString(HOSTBENCH_BUILD_TYPE) << "}";
  return os.str();
}

std::string SummaryJson(const std::string& workload, uint64_t seed, bool traced,
                        const std::vector<Cell>& cells, const WorkloadRun& run) {
  double setup_ms = 0.0;
  double run_ms = 0.0;
  double free_ms = 0.0;
  double sim_s = 0.0;
  int failed = 0;
  std::string digests;
  std::string cell_run_ms;
  std::string cell_ms;
  std::string errors;
  for (size_t i = 0; i < run.cells.size(); ++i) {
    const CellOut& cell = run.cells[i];
    setup_ms += cell.setup_ms;
    run_ms += cell.run_ms;
    free_ms += cell.free_ms;
    sim_s += cell.sim_s;
    if (i > 0) {
      digests += ',';
      cell_run_ms += ',';
      cell_ms += ',';
    }
    digests += JsonString(cell.status.ok() ? Hex(cell.digest) : "failed");
    cell_run_ms += JsonNumber(cell.run_ms);
    cell_ms += JsonNumber(cell.setup_ms + cell.run_ms + cell.free_ms);
    if (!cell.status.ok()) {
      ++failed;
      if (!errors.empty()) {
        errors += ',';
      }
      errors += JsonString(cells[i].label + ": " + cell.status.ToString());
    }
  }
  std::ostringstream os;
  os << "{\"workload\":" << JsonString(workload) << ",\"seed\":" << seed
     << ",\"jobs\":" << kSweepJobs << ",\"traced\":" << (traced ? "true" : "false")
     << ",\"cells\":" << run.cells.size() << ",\"failed\":" << failed << ",\"wall_ms\":" << JsonNumber(run.wall_ms)
     << ",\"sweep_wall_ms\":" << JsonNumber(run.stats.wall_ms)
     << ",\"serial_ms\":" << JsonNumber(run.stats.serial_ms)
     << ",\"max_cell_ms\":" << JsonNumber(run.stats.max_cell_ms)
     << ",\"setup_ms\":" << JsonNumber(setup_ms) << ",\"run_ms\":" << JsonNumber(run_ms)
     << ",\"free_ms\":" << JsonNumber(free_ms) << ",\"sim_s\":" << JsonNumber(sim_s)
     << ",\"peak_rss_mib\":" << JsonNumber(PeakRssMib()) << ",\"digests\":[" << digests
     << "],\"cell_run_ms\":[" << cell_run_ms << "],\"cell_ms\":[" << cell_ms
     << "],\"errors\":[" << errors << "]";
  if (traced) {
    os << ",\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : LayerMetrics(run)) {
      os << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(value);
      first = false;
    }
    os << "}";
  }
  os << ",\"fingerprint\":" << Fingerprint() << "}";
  return os.str();
}

// Chrome trace-event JSON (open in Perfetto): one thread row per cell plus
// the workload's root span; every span carries its id and its parent's id.
bool WriteTrace(const std::string& path, const std::string& workload,
                const std::vector<Cell>& cells, const WorkloadRun& run) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  const auto us = [](double ms) { return JsonNumber(ms * 1e3); };
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  file << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":"
       << JsonString(workload) << "}},\n";
  file << "{\"name\":" << JsonString(workload) << ",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0,"
       << "\"dur\":" << us(run.wall_ms) << ",\"args\":{\"id\":1,\"parent\":0}}";
  int next_id = 2;
  for (size_t i = 0; i < run.cells.size(); ++i) {
    const CellOut& cell = run.cells[i];
    const int tid = static_cast<int>(i) + 1;
    const int cell_id = next_id++;
    file << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"args\":{\"name\":" << JsonString(cells[i].label) << "}}";
    file << ",\n{\"name\":\"cell\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
         << ",\"ts\":" << us(cell.start_ms)
         << ",\"dur\":" << us(cell.setup_ms + cell.run_ms + cell.free_ms)
         << ",\"args\":{\"id\":" << cell_id << ",\"parent\":1,\"label\":"
         << JsonString(cells[i].label) << "}}";
    const std::vector<Span>& spans = cell.spans;
    const int base = next_id;
    for (size_t s = 0; s < spans.size(); ++s) {
      const int parent = spans[s].parent < 0 ? cell_id : base + spans[s].parent;
      file << ",\n{\"name\":" << JsonString(spans[s].name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << tid << ",\"ts\":" << us(spans[s].start_ms) << ",\"dur\":" << us(spans[s].dur_ms)
           << ",\"args\":{\"id\":" << base + static_cast<int>(s) << ",\"parent\":" << parent
           << "}}";
    }
    next_id += static_cast<int>(spans.size());
  }
  file << "\n]}\n";
  return static_cast<bool>(file);
}

// ---------------------------------------------------------------- self-test

// Exact work counters: they must repeat across runs and worker counts.
constexpr const char* kExactCounters[] = {
    "tiering.pages_scanned", "tiering.promoted_pages", "tiering.demoted_pages",
    "tiering.candidates",    "tiering.ticks",          "os.alloc_pages",
    "workload.ops",          "spark.migrated_gb",      "spark.spilled_gb"};

int SelfTest() {
  // The measured worker count is compared against a parallel sweep.
  const int jobs =
      static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    failures += ok ? 0 : 1;
  };
  constexpr uint64_t kSeed = 1;

  // The composed KV cell equals core::RunKeyDbExperiment on the same config
  // and seed: one cell of each KV shape (plain, flash, daemon).
  for (const auto& [workload, index] :
       std::vector<std::pair<std::string, size_t>>{{"kv-notier", 0}, {"kv-notier", 8},
                                                   {"kv-hotpromote", 5}}) {
    const Cell cell = WorkloadCells(workload)[index];
    const uint64_t seed = runner::CellSeed(kSeed, index);
    const CellOut composed = RunKvCell(cell, seed, /*traced=*/false, Clock::now());
    core::KeyDbExperimentOptions options;
    options.dataset_bytes = kKvDatasetBytes;
    options.value_bytes = kKvValueBytes;
    options.total_ops = kKvTotalOps;
    options.warmup_ops = kKvWarmupOps;
    options.env.seed = seed;
    options.env.jobs = 1;
    options.env.tiering_policy = cell.policy;
    const auto reference = core::RunKeyDbExperiment(cell.config, cell.ycsb, options);
    check(composed.status.ok() && reference.ok() &&
              composed.digest == KvDigest(reference->server),
          "composed cell equals RunKeyDbExperiment: " + cell.label);
  }

  for (const std::string workload : {"kv-notier", "kv-hotpromote", "spark-hotpromote"}) {
    const std::vector<Cell> cells = WorkloadCells(workload);
    WorkloadRun plain = RunWorkload(cells, kSeed, kSweepJobs, /*traced=*/false, Clock::now());
    WorkloadRun serial = RunWorkload(cells, kSeed, kSweepJobs, /*traced=*/true, Clock::now());
    WorkloadRun parallel = RunWorkload(cells, kSeed, jobs, /*traced=*/true, Clock::now());
    MeasureGeneration(cells, &serial);
    MeasureGeneration(cells, &parallel);
    bool ok = true;
    bool same = true;
    for (size_t i = 0; i < cells.size(); ++i) {
      ok = ok && plain.cells[i].status.ok() && serial.cells[i].status.ok() &&
           parallel.cells[i].status.ok();
      same = same && plain.cells[i].digest == serial.cells[i].digest &&
             plain.cells[i].digest == parallel.cells[i].digest;
    }
    check(ok, workload + ": every cell succeeds");
    check(same, workload + ": traced digests equal untraced digests");
    const auto a = LayerMetrics(serial);
    const auto b = LayerMetrics(parallel);
    std::string differing;
    for (const char* counter : kExactCounters) {
      if (a.at(counter) != b.at(counter)) {
        differing += std::string(" ") + counter;
      }
    }
    check(differing.empty(), workload + ": exact counters repeat across runs and jobs " +
                                 std::to_string(kSweepJobs) + "/" + std::to_string(jobs) +
                                 differing);
    if (workload == "kv-notier") {
      check(a.at("tiering.ticks") == 0.0, workload + ": the daemon never ticks");
    } else if (workload == "kv-hotpromote") {
      check(a.at("tiering.ticks") > 0.0, workload + ": the daemon ticks");
    }
  }
  std::cout << (failures == 0 ? "selftest: all checks passed\n" : "selftest: FAILED\n");
  return failures == 0 ? 0 : 1;
}

// --------------------------------------------------------------------- main

[[noreturn]] void UsageError(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(2);
}

template <typename T>
T ParseNumber(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    UsageError(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  std::string workload;
  std::string trace_out;
  uint64_t seed = 1;
  bool traced = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        UsageError(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = ParseNumber<uint64_t>(arg, value());
    } else if (arg == "--trace") {
      traced = true;
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      UsageError("unknown argument '" + arg + "'");
    }
  }
  if (selftest) {
    if (!workload.empty() || traced || !trace_out.empty()) {
      UsageError("--selftest takes no other flag");
    }
    return SelfTest();
  }
  const std::vector<Cell> cells = WorkloadCells(workload);
  if (cells.empty()) {
    UsageError(workload.empty() ? "--workload is required" : "unknown workload '" + workload + "'");
  }
  if (!trace_out.empty() && !traced) {
    UsageError("--trace-out needs --trace");
  }

  WorkloadRun run = RunWorkload(cells, seed, kSweepJobs, traced, origin);
  if (traced) {
    MeasureGeneration(cells, &run);
    if (!trace_out.empty() && !WriteTrace(trace_out, workload, cells, run)) {
      std::cerr << "error: cannot write " << trace_out << "\n";
      return 1;
    }
  }
  std::cout << SummaryJson(workload, seed, traced, cells, run) << "\n";
  return 0;
}
