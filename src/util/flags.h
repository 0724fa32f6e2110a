// The one argv parser: every bench, example and tool declares its flags as a
// table of Flag rows and parses argv through ParseFlags.
//
// A value flag takes `--flag V` or `--flag=V`, and a row's short alias also
// `-a V` and `-aV`; a switch takes no value. Every table gets `--help` (and
// `-h`), which prints the usage generated from the table on stdout and exits
// 0. An unknown flag, a missing or empty value, a value the row rejects, or a
// positional the program does not take prints one stderr line naming the
// argument, then the usage, and exits 2 with nothing on stdout.
//
// Depends only on the standard library and src/util/status.h, so tools that
// link no simulator library (cxl_lint) can use it.
//
//   bool check = false;
//   std::string out;
//   const Usage usage = ParseFlags(&argc, argv,
//                                  {{"--out", "FILE", Store(&out), "write here"},
//                                   {"--check", "", Store(&check), "verify"}},
//                                  "[SPEC]");
//   if (argc > 2) usage.Fail("want at most one SPEC");
#ifndef CXL_EXPLORER_SRC_UTIL_FLAGS_H_
#define CXL_EXPLORER_SRC_UTIL_FLAGS_H_

#include <charconv>
#include <cmath>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace cxl {

// Parses all of `text` as a T (an integer or a double). False, leaving *out
// untouched, on an empty, partly numeric or out-of-range string, and for a
// floating-point T on "nan", "inf" or "infinity": every number a flag or a
// spec takes is finite.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  *out = value;
  return true;
}

// Applies a flag's value (empty for a switch). A non-ok Status rejects the
// value; its message says what the flag wants.
using FlagSetter = std::function<Status(const std::string& value)>;

// One row of a flag table.
struct Flag {
  std::string name;        // "--jobs"
  std::string value_name;  // "N", "FILE", ...; empty for a switch
  FlagSetter set;
  std::string help;
  std::string alias = "";  // "-j": a one-letter short form, or empty
};

// A setter that stores the value in *out: a std::string as given, a number
// parsed whole by ParseNumber, and a bool switch as true.
template <typename T>
FlagSetter Store(T* out) {
  return [out](const std::string& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      *out = value;
    } else if constexpr (std::is_same_v<T, bool>) {
      *out = true;
    } else if (!ParseNumber(value, out)) {
      return Status::InvalidArgument(!std::is_integral_v<T> ? "want a number"
                                     : std::is_signed_v<T>  ? "want an integer"
                                                            : "want a non-negative integer");
    }
    return Status::Ok();
  };
}

// A setter that takes one of `choices` by name and stores its value.
template <typename T>
FlagSetter OneOf(T* out, std::vector<std::pair<std::string, T>> choices) {
  return [out, choices = std::move(choices)](const std::string& value) {
    std::string known;
    for (const auto& [name, choice] : choices) {
      if (name == value) {
        *out = choice;
        return Status::Ok();
      }
      known += known.empty() ? name : ", " + name;
    }
    return Status::InvalidArgument("want one of " + known);
  };
}

// The row of `table` whose name or alias is `name`, or nullptr.
const Flag* FindFlag(const std::vector<Flag>& table, std::string_view name);

// Applies `value` to `flag`, given as `name`. An empty value for a value
// flag, or one its setter rejects, is an InvalidArgument naming `name`.
Status ApplyFlag(const Flag& flag, const std::string& name, const std::string& value);

// A program's name and the usage generated from its flag table: what a
// caller needs to reject, after the parse, an argument the table cannot
// check (a count of positionals, a malformed one) the way the parser does.
class Usage {
 public:
  Usage() = default;
  Usage(std::string program, std::string text)
      : program_(std::move(program)), text_(std::move(text)) {}

  // Prints "<program>: <message>" and the usage to stderr, then exits 2.
  [[noreturn]] void Fail(const std::string& message) const;

  const std::string& text() const { return text_; }

 private:
  std::string program_;
  std::string text_;
};

// Parses argv[1, *argc) against `table` plus the --help row, applying each
// flag in order. `positionals` names the positional arguments on the usage
// line ("[SPEC]"); they are left in argv, compacted into *argc. Empty, the
// program takes none and a positional fails.
Usage ParseFlags(int* argc, char** argv, std::vector<Flag> table,
                 const std::string& positionals = "");

}  // namespace cxl

#endif  // CXL_EXPLORER_SRC_UTIL_FLAGS_H_
