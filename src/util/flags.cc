#include "src/util/flags.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

namespace cxl {

namespace {

std::string RenderUsage(const std::string& program, const std::vector<Flag>& table,
                        const std::string& positionals) {
  std::string usage = "usage: " + program + " [flags]";
  if (!positionals.empty()) {
    usage += " " + positionals;
  }
  usage += "\n";
  for (const Flag& flag : table) {
    const std::string value = flag.value_name.empty() ? "" : " " + flag.value_name;
    std::string left = "  " + flag.name + value;
    if (!flag.alias.empty()) {
      left += ", " + flag.alias + value;
    }
    left.resize(std::max<size_t>(left.size() + 1, 28), ' ');
    usage += left + flag.help + "\n";
  }
  return usage;
}

}  // namespace

const Flag* FindFlag(const std::vector<Flag>& table, std::string_view name) {
  for (const Flag& flag : table) {
    if (flag.name == name || (!flag.alias.empty() && flag.alias == name)) {
      return &flag;
    }
  }
  return nullptr;
}

Status ApplyFlag(const Flag& flag, const std::string& name, const std::string& value) {
  if (!flag.value_name.empty() && value.empty()) {
    return Status::InvalidArgument("'" + name + "' needs a value (" + flag.value_name + ")");
  }
  if (const Status set = flag.set(value); !set.ok()) {
    return Status::InvalidArgument("bad value '" + value + "' for '" + name +
                                   "': " + set.message());
  }
  return Status::Ok();
}

void Usage::Fail(const std::string& message) const {
  std::cerr << program_ << ": " << message << "\n" << text_;
  std::exit(2);
}

Usage ParseFlags(int* argc, char** argv, std::vector<Flag> table,
                 const std::string& positionals) {
  const std::string_view argv0 = argv[0];
  Usage usage;
  table.push_back({"--help", "",
                   [&usage](const std::string&) {
                     std::cout << usage.text() << std::flush;
                     std::exit(0);
                     return Status::Ok();
                   },
                   "print this usage and exit", "-h"});
  const std::string program(argv0.substr(argv0.find_last_of('/') + 1));
  usage = Usage(program, RenderUsage(program, table, positionals));

  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (positionals.empty()) {
        usage.Fail("unexpected argument '" + arg + "'");
      }
      argv[kept++] = argv[i];
      continue;
    }
    // `--name[=V]`, or a short `-a[V]`.
    const size_t end = arg[1] == '-' ? arg.find('=') : 2;
    const std::string name = arg.substr(0, end);
    const bool has_value = end < arg.size();
    std::string value = has_value ? arg.substr(end + (arg[1] == '-' ? 1 : 0)) : "";
    const Flag* flag = FindFlag(table, name);
    if (flag == nullptr) {
      usage.Fail("unknown flag '" + name + "'");
    }
    if (flag->value_name.empty() && has_value) {
      usage.Fail("'" + name + "' takes no value");
    }
    if (!flag->value_name.empty() && !has_value) {
      if (i + 1 >= *argc) {
        usage.Fail("'" + name + "' needs a value (" + flag->value_name + ")");
      }
      value = argv[++i];
    }
    if (const Status applied = ApplyFlag(*flag, name, value); !applied.ok()) {
      usage.Fail(applied.message());
    }
  }
  *argc = kept;
  return usage;
}

}  // namespace cxl
