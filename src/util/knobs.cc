#include "src/util/knobs.h"

#include <cassert>

namespace cxl {

void KnobSet::Declare(const std::string& key, double default_value,
                      const std::string& description) {
  Entry entry;
  entry.value = default_value;
  entry.description = description;
  entries_[key] = std::move(entry);
}

Status KnobSet::Set(const std::string& key, double value) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("unknown knob: " + key);
  }
  it->second.value = value;
  return Status::Ok();
}

double KnobSet::Get(const std::string& key) const {
  auto it = entries_.find(key);
  assert(it != entries_.end() && "knob not declared");
  if (it == entries_.end()) {
    return 0.0;
  }
  return it->second.value;
}

}  // namespace cxl
