#include "src/fault/fault.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>

#include "src/util/flags.h"
#include "src/util/units.h"

namespace cxl::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Formats a double the way the spec grammar accepts it back: shortest
// round-trip-ish form, no trailing zeros.
std::string FormatNumber(double v) {
  if (v == static_cast<int64_t>(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

struct SeverityRange {
  double min;
  double max;
  double fallback;  // Used when the spec omits '=severity'.
};

// Per-type severity validation for Parse(): lanes in {1..16}, probabilities
// and fractions in [0, 1].
SeverityRange RangeFor(FaultType type) {
  switch (type) {
    case FaultType::kLaneDowntrain:
      return {1.0, 16.0, 8.0};
    case FaultType::kCrcRetryStorm:
      return {0.0, 0.9, 0.15};
    case FaultType::kPoisonedCacheline:
      return {0.0, 1.0, 1e-4};
    case FaultType::kDramThrottle:
      return {0.01, 1.0, 0.5};
    case FaultType::kDaemonStall:
      return {0.0, 1.0, 0.0};
    case FaultType::kFlashIoError:
      return {0.0, 1.0, 0.01};
  }
  return {0.0, 1.0, 0.0};
}

StatusOr<FaultType> TypeFromName(std::string_view name) {
  if (name == "downtrain") return FaultType::kLaneDowntrain;
  if (name == "crc") return FaultType::kCrcRetryStorm;
  if (name == "poison") return FaultType::kPoisonedCacheline;
  if (name == "throttle") return FaultType::kDramThrottle;
  if (name == "stall") return FaultType::kDaemonStall;
  if (name == "flash") return FaultType::kFlashIoError;
  return Status::InvalidArgument("unknown fault type '" + std::string(name) +
                                 "' (want downtrain|crc|poison|throttle|stall|flash|storm)");
}

}  // namespace

const char* FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kLaneDowntrain:
      return "downtrain";
    case FaultType::kCrcRetryStorm:
      return "crc";
    case FaultType::kPoisonedCacheline:
      return "poison";
    case FaultType::kDramThrottle:
      return "throttle";
    case FaultType::kDaemonStall:
      return "stall";
    case FaultType::kFlashIoError:
      return "flash";
  }
  return "unknown";
}

FaultPlan& FaultPlan::Downtrain(double start_s, double duration_s, int lanes) {
  return Add({FaultType::kLaneDowntrain, start_s, duration_s, static_cast<double>(lanes)});
}

FaultPlan& FaultPlan::CrcStorm(double start_s, double duration_s, double extra_maintenance) {
  return Add({FaultType::kCrcRetryStorm, start_s, duration_s, extra_maintenance});
}

FaultPlan& FaultPlan::Poison(double start_s, double duration_s, double probability) {
  return Add({FaultType::kPoisonedCacheline, start_s, duration_s, probability});
}

FaultPlan& FaultPlan::DramThrottle(double start_s, double duration_s, double bandwidth_factor) {
  return Add({FaultType::kDramThrottle, start_s, duration_s, bandwidth_factor});
}

FaultPlan& FaultPlan::DaemonStall(double start_s, double duration_s) {
  return Add({FaultType::kDaemonStall, start_s, duration_s, 0.0});
}

FaultPlan& FaultPlan::FlashErrors(double start_s, double duration_s, double probability) {
  return Add({FaultType::kFlashIoError, start_s, duration_s, probability});
}

FaultPlan& FaultPlan::Add(FaultEvent event) {
  events_.push_back(event);
  return *this;
}

StatusOr<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) {
      comma = spec.size();
    }
    std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim surrounding whitespace.
    while (!item.empty() && std::isspace(static_cast<unsigned char>(item.front()))) {
      item.remove_prefix(1);
    }
    while (!item.empty() && std::isspace(static_cast<unsigned char>(item.back()))) {
      item.remove_suffix(1);
    }
    if (item.empty()) {
      if (comma == spec.size()) {
        break;
      }
      return Status::InvalidArgument("empty fault event in spec");
    }
    if (item == "storm") {
      // Named temporary: ranging directly over Storm().events() would dangle
      // (the FaultPlan temporary dies before the loop body in C++17).
      const FaultPlan storm = Storm();
      for (const FaultEvent& e : storm.events()) {
        plan.Add(e);
      }
      continue;
    }
    // type ['@' start] ['+' duration] ['=' severity]
    const size_t type_end = item.find_first_of("@+=");
    const std::string_view type_name = item.substr(0, type_end);
    auto type = TypeFromName(type_name);
    if (!type.ok()) {
      return type.status();
    }
    FaultEvent event;
    event.type = *type;
    const SeverityRange range = RangeFor(event.type);
    event.severity = range.fallback;
    std::string_view rest = type_end == std::string_view::npos ? "" : item.substr(type_end);
    while (!rest.empty()) {
      const char tag = rest.front();
      rest.remove_prefix(1);
      const size_t next = rest.find_first_of("@+=");
      const std::string_view number = rest.substr(0, next);
      rest = next == std::string_view::npos ? "" : rest.substr(next);
      // Whole and finite: "nan" and "inf" are no start, duration or severity.
      double value = 0.0;
      if (!ParseNumber(number, &value)) {
        const char* what = tag == '@' ? "start" : tag == '+' ? "duration" : "severity";
        return Status::InvalidArgument("bad " + std::string(what) + " '" + std::string(number) +
                                       "'");
      }
      switch (tag) {
        case '@':
          event.start_s = value;
          break;
        case '+':
          event.duration_s = value;
          break;
        case '=':
          event.severity = value;
          break;
        default:
          return Status::InvalidArgument("bad fault event syntax");
      }
    }
    if (event.start_s < 0.0 || event.duration_s <= 0.0) {
      return Status::InvalidArgument("fault '" + std::string(item) +
                                     "': start must be >= 0 and duration > 0");
    }
    if (event.severity < range.min || event.severity > range.max) {
      return Status::InvalidArgument("fault '" + std::string(item) + "': severity out of [" +
                                     FormatNumber(range.min) + ", " + FormatNumber(range.max) +
                                     "]");
    }
    plan.Add(event);
  }
  return plan;
}

FaultPlan FaultPlan::Storm() {
  FaultPlan plan;
  plan.Downtrain(/*start_s=*/1.0, /*duration_s=*/4.0, /*lanes=*/8)
      .CrcStorm(/*start_s=*/2.0, /*duration_s=*/2.0, /*extra_maintenance=*/0.15)
      .Poison(/*start_s=*/0.0, /*duration_s=*/kInf, /*probability=*/1e-4)
      .DaemonStall(/*start_s=*/3.0, /*duration_s=*/1.5)
      .FlashErrors(/*start_s=*/0.5, /*duration_s=*/kInf, /*probability=*/0.01);
  return plan;
}

void DeclareFaultKnobs(KnobSet& knobs) {
  const FaultTunables d;
  knobs.Declare("fault.poison_read_retries", d.poison_read_retries,
                "KV server rereads per poisoned cacheline before giving up");
  knobs.Declare("fault.flash_timeout_factor", d.flash_timeout_factor,
                "flash IO-error timeout as a multiple of the normal SSD read");
  knobs.Declare("fault.shed_latency_factor", d.shed_latency_factor,
                "epoch latency vs healthy baseline that arms KV load shedding");
  knobs.Declare("fault.shed_arm_epochs", d.shed_arm_epochs,
                "consecutive degraded epochs before the KV server sheds load");
  knobs.Declare("fault.shed_fraction", d.shed_fraction,
                "fraction of arrivals rejected while the KV server sheds");
  knobs.Declare("fault.backoff_max_ticks", d.backoff_max_ticks,
                "tiering-daemon promotion-failure backoff cap, in ticks");
  knobs.Declare("fault.llm_batch_shrink_threshold", d.llm_batch_shrink_threshold,
                "CXL bandwidth factor below which LLM serving shrinks batches");
  knobs.Declare("fault.llm_latency_slo_factor", d.llm_latency_slo_factor,
                "per-token latency inflation LLM batch shrinking targets");
  knobs.Declare("fault.spark_shuffle_partitions", d.spark_shuffle_partitions,
                "shuffle partitions per Spark stage (re-execution granularity)");
  knobs.Declare("fault.spark_fetch_failure_probability", d.spark_fetch_failure_probability,
                "per-partition shuffle fetch-failure probability on a degraded link");
}

FaultTunables FaultTunablesFromKnobs(const KnobSet& knobs) {
  FaultTunables t;
  auto get = [&knobs](const char* key, double fallback) {
    return knobs.IsDeclared(key) ? knobs.Get(key) : fallback;
  };
  t.poison_read_retries =
      static_cast<int>(get("fault.poison_read_retries", t.poison_read_retries));
  t.flash_timeout_factor = get("fault.flash_timeout_factor", t.flash_timeout_factor);
  t.shed_latency_factor = get("fault.shed_latency_factor", t.shed_latency_factor);
  t.shed_arm_epochs = static_cast<int>(get("fault.shed_arm_epochs", t.shed_arm_epochs));
  t.shed_fraction = get("fault.shed_fraction", t.shed_fraction);
  t.backoff_max_ticks = static_cast<int>(get("fault.backoff_max_ticks", t.backoff_max_ticks));
  t.llm_batch_shrink_threshold =
      get("fault.llm_batch_shrink_threshold", t.llm_batch_shrink_threshold);
  t.llm_latency_slo_factor = get("fault.llm_latency_slo_factor", t.llm_latency_slo_factor);
  t.spark_shuffle_partitions =
      static_cast<int>(get("fault.spark_shuffle_partitions", t.spark_shuffle_partitions));
  t.spark_fetch_failure_probability =
      get("fault.spark_fetch_failure_probability", t.spark_fetch_failure_probability);
  return t;
}

double DegradedLinkBandwidthFactor(const mem::CxlLinkConfig& base, int active_lanes,
                                   double extra_maintenance) {
  const double healthy = mem::ComputeLinkEfficiency(base).effective_gbps;
  if (healthy <= 0.0) {
    return 1.0;
  }
  const mem::CxlLinkConfig degraded = mem::DegradeLink(base, active_lanes, extra_maintenance);
  return mem::ComputeLinkEfficiency(degraded).effective_gbps / healthy;
}

FaultInjector::FaultInjector(FaultPlan plan, uint64_t seed, FaultTunables tunables)
    : plan_(std::move(plan)),
      tunables_(tunables),
      rng_(SplitMix64(seed ^ 0xfa0173f5c4a11e57ull)),
      announced_(plan_.events().size(), false),
      closed_(plan_.events().size(), false) {
  // Events starting at t=0 must be visible before the first AdvanceTo (whose
  // monotonic guard rejects t<=0). Recompute draws nothing from the RNG and
  // telemetry is not yet attached, so this cannot perturb a healthy run.
  if (enabled()) {
    Recompute();
  }
}

void FaultInjector::AttachTelemetry(telemetry::MetricRegistry* sink) {
  telemetry_ = sink;
  if (telemetry_ != nullptr && enabled()) {
    track_ = telemetry_->trace().Track("faults");
  }
}

void FaultInjector::AdvanceTo(double t_s) {
  if (!enabled() || t_s <= now_s_) {
    return;
  }
  now_s_ = t_s;
  Recompute();
}

void FaultInjector::Recompute() {
  lanes_ = 16;
  extra_maintenance_ = 0.0;
  poison_p_ = 0.0;
  dram_factor_ = 1.0;
  flash_p_ = 0.0;
  stalled_ = false;
  active_count_ = 0;
  const auto& events = plan_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    // Announce each event once, as it first becomes visible to the clock.
    if (telemetry_ != nullptr && !announced_[i] && now_s_ >= e.start_s) {
      announced_[i] = true;
      telemetry_->GetCounter("fault.events").Increment();
      telemetry_->GetCounter(std::string("fault.") + FaultTypeName(e.type)).Increment();
      const double dur_ms = std::isfinite(e.duration_s) ? SecToMs(e.duration_s) : 0.0;
      telemetry_->trace().Span(track_, FaultTypeName(e.type), SecToMs(e.start_s), dur_ms,
                               {{"severity", e.severity}});
      telemetry_->events().Record(
          telemetry::Event(telemetry::EventKind::kFaultWindowOpen, SecToMs(e.start_s))
              .WithWindow(static_cast<int32_t>(i))
              .WithReason(static_cast<int32_t>(e.type))
              .WithA(e.severity)
              .WithB(dur_ms));
    }
    // Retire each finite window once the clock passes its end.
    if (telemetry_ != nullptr && announced_[i] && !closed_[i] && std::isfinite(e.duration_s) &&
        now_s_ >= e.end_s()) {
      closed_[i] = true;
      telemetry_->events().Record(
          telemetry::Event(telemetry::EventKind::kFaultWindowClose, SecToMs(e.end_s()))
              .WithWindow(static_cast<int32_t>(i))
              .WithReason(static_cast<int32_t>(e.type))
              .WithA(e.severity));
    }
    if (!e.ActiveAt(now_s_)) {
      continue;
    }
    ++active_count_;
    switch (e.type) {
      case FaultType::kLaneDowntrain:
        lanes_ = std::min(lanes_, std::clamp(static_cast<int>(e.severity), 1, 16));
        break;
      case FaultType::kCrcRetryStorm:
        extra_maintenance_ += e.severity;
        break;
      case FaultType::kPoisonedCacheline:
        poison_p_ = std::max(poison_p_, e.severity);
        break;
      case FaultType::kDramThrottle:
        dram_factor_ = std::min(dram_factor_, std::max(0.01, e.severity));
        break;
      case FaultType::kDaemonStall:
        stalled_ = true;
        break;
      case FaultType::kFlashIoError:
        flash_p_ = std::max(flash_p_, e.severity);
        break;
    }
  }
  link_degraded_ = lanes_ < 16 || extra_maintenance_ > 0.0;
  cxl_bw_factor_ = link_degraded_
                       ? DegradedLinkBandwidthFactor(mem::AsicLinkConfig(), lanes_,
                                                     extra_maintenance_)
                       : 1.0;
  if (telemetry_ != nullptr) {
    telemetry_->timeline().Sample("fault.cxl_bw_factor", SecToMs(now_s_), cxl_bw_factor_);
  }
}

bool FaultInjector::SamplePoisonedRead() {
  if (poison_p_ <= 0.0) {
    return false;
  }
  const bool hit = rng_.NextBool(poison_p_);
  if (hit && telemetry_ != nullptr) {
    telemetry_->GetCounter("fault.poisoned_reads").Increment();
  }
  return hit;
}

bool FaultInjector::SampleFlashError() {
  if (flash_p_ <= 0.0) {
    return false;
  }
  const bool hit = rng_.NextBool(flash_p_);
  if (hit && telemetry_ != nullptr) {
    telemetry_->GetCounter("fault.flash_errors").Increment();
  }
  return hit;
}

bool FaultInjector::SampleShuffleFailure(double probability) {
  if (!link_degraded_ || probability <= 0.0) {
    return false;
  }
  return rng_.NextBool(probability);
}

int32_t FaultInjector::ActiveWindowOf(FaultType type) const {
  int32_t best = telemetry::kNoWindow;
  const auto& events = plan_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.type != type || !e.ActiveAt(now_s_)) {
      continue;
    }
    if (best == telemetry::kNoWindow || e.start_s < events[best].start_s) {
      best = static_cast<int32_t>(i);
    }
  }
  return best;
}

int32_t FaultInjector::ActiveLinkWindow() const {
  int32_t best = telemetry::kNoWindow;
  const auto& events = plan_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const bool link_fault =
        e.type == FaultType::kLaneDowntrain || e.type == FaultType::kCrcRetryStorm;
    if (!link_fault || !e.ActiveAt(now_s_)) {
      continue;
    }
    if (best == telemetry::kNoWindow || e.start_s < events[best].start_s) {
      best = static_cast<int32_t>(i);
    }
  }
  return best;
}

int32_t FaultInjector::AttributedWindow() const { return AttributeWindowAt(plan_, now_s_); }

int32_t AttributeWindowAt(const FaultPlan& plan, double t_s) {
  int32_t active = telemetry::kNoWindow;
  int32_t recent = telemetry::kNoWindow;
  const auto& events = plan.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.start_s > t_s) {
      continue;
    }
    if (e.ActiveAt(t_s)) {
      if (active == telemetry::kNoWindow || e.start_s < events[active].start_s) {
        active = static_cast<int32_t>(i);
      }
    } else if (recent == telemetry::kNoWindow || e.start_s > events[recent].start_s) {
      recent = static_cast<int32_t>(i);
    }
  }
  return active != telemetry::kNoWindow ? active : recent;
}

}  // namespace cxl::fault
