// Watchdogged child execution for the forensics layer.
//
// A fuzzed scenario can do anything — violate an invariant (detected,
// reported), trip a JUG_CHECK (SIGABRT), corrupt memory (sanitizer abort),
// or wedge in an endless loop (hang forever). The supervisor therefore never
// runs a candidate scenario in its own process: it forks, runs the scenario
// in the child, and enforces a *wall-clock* watchdog — SIGKILL, not a polite
// signal, because a wedged child need not honor a polite one.
//
// The child reports structured results over a dedicated pipe (`report_fd`),
// separate from stderr, which is captured too: sanitizer reports and
// JUG_CHECK messages land on stderr and are the only evidence a crashed
// child leaves behind. The parent reaps exactly the child it forked and
// never blocks longer than the timeout plus one drain pass.

#ifndef JUGGLER_SRC_UTIL_SUBPROCESS_H_
#define JUGGLER_SRC_UTIL_SUBPROCESS_H_

#include <functional>
#include <string>

namespace juggler {

struct ChildResult {
  bool forked = false;     // false: fork() itself failed (see error)
  bool timed_out = false;  // watchdog fired; the child was SIGKILLed
  bool exited = false;     // child terminated via _exit / main return
  int exit_code = 0;       // valid when exited
  int term_signal = 0;     // non-zero when the child died by a signal
  std::string report;      // everything the child wrote to report_fd
  std::string stderr_text; // captured child stderr (bounded)
  int64_t wall_ms = 0;     // child lifetime observed by the parent
  std::string error;       // parent-side failure description, if any

  // The child was killed by a signal it did not expect (anything other than
  // the watchdog's own SIGKILL).
  bool crashed() const { return term_signal != 0 && !timed_out; }
};

// Forks; the child runs `fn(report_fd)` and then _exit(0). `fn` writing to
// report_fd is the only supported output channel besides stderr (stdout is
// left alone but should stay unused — gtest owns it in test processes).
// The parent captures report + stderr, waits at most `timeout_ms`
// wall-clock milliseconds, SIGKILLs on expiry, and always reaps the child.
// An `fn` that throws terminates the child with exit code 97.
ChildResult RunChildWithWatchdog(const std::function<void(int report_fd)>& fn, int timeout_ms);

// Writes all of `data` to `fd`, retrying on EINTR / short writes. Returns
// false when the descriptor rejects the data (e.g. the parent died).
bool WriteAll(int fd, const std::string& data);

}  // namespace juggler

#endif  // JUGGLER_SRC_UTIL_SUBPROCESS_H_
