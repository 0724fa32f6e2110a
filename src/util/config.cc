#include "src/util/config.h"

#include <sstream>

namespace cxl {

namespace {

// Trims leading/trailing whitespace.
std::string Trim(const std::string& s) {
  const size_t start = s.find_first_not_of(" \t\r");
  if (start == std::string::npos) {
    return "";
  }
  const size_t end = s.find_last_not_of(" \t\r");
  return s.substr(start, end - start + 1);
}

}  // namespace

StatusOr<Config> Config::Parse(std::istream& is) {
  Config cfg;
  std::string line;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = Trim(line);
    if (line.empty()) {
      continue;
    }
    // Split on '=' or the first whitespace run.
    size_t sep = line.find('=');
    std::string key;
    std::string value;
    if (sep != std::string::npos) {
      key = Trim(line.substr(0, sep));
      value = Trim(line.substr(sep + 1));
    } else {
      sep = line.find_first_of(" \t");
      if (sep == std::string::npos) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected 'key value' or 'key = value'");
      }
      key = Trim(line.substr(0, sep));
      value = Trim(line.substr(sep + 1));
    }
    if (key.empty() || value.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": empty key or value");
    }
    if (cfg.Find(key) != nullptr) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": duplicate key '" +
                                     key + "'");
    }
    cfg.rows_.push_back(Row{key, value, line_no});
  }
  return cfg;
}

const Config::Row* Config::Find(const std::string& key) const {
  for (const Row& row : rows_) {
    if (row.key == key) {
      return &row;
    }
  }
  return nullptr;
}

StatusOr<Config> Config::ParseString(const std::string& text) {
  std::istringstream is(text);
  return Parse(is);
}

}  // namespace cxl
