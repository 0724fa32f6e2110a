#include "src/workload/trace.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <string>

namespace cxl::workload {

double AccessTrace::WriteFraction() const {
  if (ops_.empty()) {
    return 0.0;
  }
  const auto writes = static_cast<double>(
      std::count_if(ops_.begin(), ops_.end(),
                    [](const YcsbOp& op) { return op.type != YcsbOp::Type::kRead; }));
  return writes / static_cast<double>(ops_.size());
}

namespace {

char OpCode(YcsbOp::Type type) {
  switch (type) {
    case YcsbOp::Type::kRead:
      return 'R';
    case YcsbOp::Type::kUpdate:
      return 'U';
    case YcsbOp::Type::kInsert:
      return 'I';
  }
  return '?';
}

}  // namespace

void AccessTrace::SaveCsv(std::ostream& os) const {
  os << "op,key\n";
  for (const YcsbOp& op : ops_) {
    os << OpCode(op.type) << "," << op.key << "\n";
  }
}

StatusOr<AccessTrace> AccessTrace::LoadCsv(std::istream& is) {
  AccessTrace trace;
  std::string line;
  if (!std::getline(is, line) || line != "op,key") {
    return Status::InvalidArgument("trace CSV must start with header 'op,key'");
  }
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line.size() < 3 || line[1] != ',') {
      return Status::InvalidArgument("malformed trace row at line " + std::to_string(line_no));
    }
    YcsbOp op;
    switch (line[0]) {
      case 'R':
        op.type = YcsbOp::Type::kRead;
        break;
      case 'U':
        op.type = YcsbOp::Type::kUpdate;
        break;
      case 'I':
        op.type = YcsbOp::Type::kInsert;
        break;
      default:
        return Status::InvalidArgument("unknown op code at line " + std::to_string(line_no));
    }
    errno = 0;
    char* end = nullptr;
    op.key = std::strtoull(line.c_str() + 2, &end, 10);
    if (end == line.c_str() + 2 || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("bad key at line " + std::to_string(line_no));
    }
    trace.Append(op);
  }
  return trace;
}

YcsbOp TraceReplaySource::Next() {
  assert(!trace_.empty() && "cannot replay an empty trace");
  const YcsbOp op = trace_.at(cursor_);
  ++cursor_;
  if (cursor_ >= trace_.size()) {
    cursor_ = 0;
    ++wraps_;
  }
  return op;
}

}  // namespace cxl::workload
