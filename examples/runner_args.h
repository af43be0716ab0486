// Strict command-line value parsing shared by the chaos, fuzz and replay
// runners. Every helper either returns a well-formed value or prints a
// usage error naming the flag and exits with status 2, so a malformed
// number can never wrap or truncate into a run that means something else.

#ifndef JUGGLER_EXAMPLES_RUNNER_ARGS_H_
#define JUGGLER_EXAMPLES_RUNNER_ARGS_H_

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace juggler {

// The value after argv[*i] (advancing *i past it), or exit 2 when the flag
// is the last argument.
inline const char* NextArg(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", flag);
    std::exit(2);
  }
  return argv[++*i];
}

// A positive int (1..INT_MAX). Counts below 1 would run nothing and still
// report PASS; a timeout below 1 would classify every child as a deadlock.
inline int ParseCount(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1 || v > INT_MAX) {
    std::fprintf(stderr, "%s must be a positive integer, got \"%s\"\n", flag, text);
    std::exit(2);
  }
  return static_cast<int>(v);
}

// A decimal unsigned 64-bit integer: digits only (strtoull would accept a
// sign and negate "-5" into ~1.8e19), no trailing text, no overflow.
inline uint64_t ParseU64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr, "%s must be an unsigned 64-bit integer, got \"%s\"\n", flag, text);
    std::exit(2);
  }
  return static_cast<uint64_t>(v);
}

// A probability in [0, 1], written as a plain decimal: no sign, no leading
// space, no trailing text (atof would read "1.5x" as 1.5 and "x" as 0).
inline double ParseProbability(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  const bool plain = std::isdigit(static_cast<unsigned char>(text[0])) != 0 || text[0] == '.';
  if (!plain || end == text || *end != '\0' || errno == ERANGE || !(v >= 0.0 && v <= 1.0)) {
    std::fprintf(stderr, "%s must be a probability in [0, 1], got \"%s\"\n", flag, text);
    std::exit(2);
  }
  return v;
}

}  // namespace juggler

#endif  // JUGGLER_EXAMPLES_RUNNER_ARGS_H_
