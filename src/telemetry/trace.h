// Span buffer for Chrome trace-event export.
//
// Components record onto named *tracks* (one per simulated component: KV
// server, promotion daemon, Spark phases, LLM backends, sweep cells); the
// exporter maps each track to a tid with a `thread_name` metadata event so
// Perfetto / chrome://tracing renders one labelled row per component.
// Timestamps are milliseconds in whatever clock the component uses
// (simulated time for in-sim spans, wall-clock offsets for sweep schedules).
#ifndef CXL_EXPLORER_SRC_TELEMETRY_TRACE_H_
#define CXL_EXPLORER_SRC_TELEMETRY_TRACE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cxl::telemetry {

class TraceBuffer {
 public:
  using TrackId = int;
  using Args = std::vector<std::pair<std::string, double>>;

  // Returns the track named `name`, creating it if needed. Ids are dense and
  // stable; acquire once, then record through the id on hot paths.
  TrackId Track(const std::string& name);

  // A complete ("X") event covering [start_ms, start_ms + dur_ms).
  void Span(TrackId track, std::string name, double start_ms, double dur_ms, Args args = {});

  struct Event {
    TrackId track = 0;
    std::string name;
    double ts_ms = 0.0;
    double dur_ms = 0.0;
    Args args;
  };

  const std::vector<std::string>& tracks() const { return tracks_; }
  const std::vector<Event>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // Appends `other`'s events, remapping its tracks to `prefix + track name`
  // here. Deterministic given deterministic inputs and merge order.
  void MergeFrom(const TraceBuffer& other, const std::string& prefix = "");

 private:
  std::vector<std::string> tracks_;           // Indexed by TrackId.
  std::map<std::string, TrackId> track_ids_;  // Name -> id.
  std::vector<Event> events_;
};

}  // namespace cxl::telemetry

#endif  // CXL_EXPLORER_SRC_TELEMETRY_TRACE_H_
