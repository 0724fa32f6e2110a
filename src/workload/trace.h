// Access-trace recording and replay.
//
// The paper open-sources "all data and testing configurations"; traces are
// the equivalent artefact here. A trace captures the exact operation stream
// of a run (type + key), can be saved/loaded as CSV, and replays through
// the same OpSource interface the live generators use — so any experiment
// can be re-run bit-identically from a file, or against a trace captured
// elsewhere.
#ifndef CXL_EXPLORER_SRC_WORKLOAD_TRACE_H_
#define CXL_EXPLORER_SRC_WORKLOAD_TRACE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "src/util/status.h"
#include "src/workload/ycsb.h"

namespace cxl::workload {

// An ordered operation stream.
class AccessTrace {
 public:
  void Append(const YcsbOp& op) { ops_.push_back(op); }

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  const YcsbOp& at(size_t i) const { return ops_[i]; }
  const std::vector<YcsbOp>& ops() const { return ops_; }

  // Fraction of operations that write.
  double WriteFraction() const;
  // CSV: header "op,key", one row per op, op in {R, U, I}.
  void SaveCsv(std::ostream& os) const;
  static StatusOr<AccessTrace> LoadCsv(std::istream& is);

 private:
  std::vector<YcsbOp> ops_;
};

// OpSource that records everything another source produces (tee).
class RecordingSource final : public OpSource {
 public:
  RecordingSource(OpSource& inner, AccessTrace& trace) : inner_(inner), trace_(trace) {}

  YcsbOp Next() override {
    const YcsbOp op = inner_.Next();
    trace_.Append(op);
    return op;
  }
  double WriteFraction() const override { return inner_.WriteFraction(); }

 private:
  OpSource& inner_;
  AccessTrace& trace_;
};

// OpSource that replays a trace, wrapping around at the end.
class TraceReplaySource final : public OpSource {
 public:
  explicit TraceReplaySource(const AccessTrace& trace) : trace_(trace) {}

  YcsbOp Next() override;
  double WriteFraction() const override { return trace_.WriteFraction(); }

  // Number of full passes completed over the trace.
  uint64_t wraps() const { return wraps_; }

 private:
  const AccessTrace& trace_;
  size_t cursor_ = 0;
  uint64_t wraps_ = 0;
};

}  // namespace cxl::workload

#endif  // CXL_EXPLORER_SRC_WORKLOAD_TRACE_H_
