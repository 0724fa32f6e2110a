#include "src/telemetry/trace.h"

namespace cxl::telemetry {

TraceBuffer::TrackId TraceBuffer::Track(const std::string& name) {
  const auto [it, inserted] = track_ids_.try_emplace(name, static_cast<TrackId>(tracks_.size()));
  if (inserted) {
    tracks_.push_back(name);
  }
  return it->second;
}

void TraceBuffer::Span(TrackId track, std::string name, double start_ms, double dur_ms,
                       Args args) {
  events_.push_back(Event{track, std::move(name), start_ms, dur_ms, std::move(args)});
}

void TraceBuffer::MergeFrom(const TraceBuffer& other, const std::string& prefix) {
  std::vector<TrackId> remap(other.tracks_.size(), 0);
  for (size_t i = 0; i < other.tracks_.size(); ++i) {
    remap[i] = Track(prefix + other.tracks_[i]);
  }
  events_.reserve(events_.size() + other.events_.size());
  for (Event e : other.events_) {
    e.track = remap[static_cast<size_t>(e.track)];
    events_.push_back(std::move(e));
  }
}

}  // namespace cxl::telemetry
