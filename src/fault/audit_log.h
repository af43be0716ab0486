// Violation collector shared by the fault layer's checkers.
//
// Checkers (StreamIntegrityChecker, JugglerAuditor) record invariant
// violations here instead of aborting, so a chaos soak can run a whole
// timeline to completion and report *every* violation, and so tests can
// assert that deliberately-broken runs are detected. The message list is
// bounded; the count is not.

#ifndef JUGGLER_SRC_FAULT_AUDIT_LOG_H_
#define JUGGLER_SRC_FAULT_AUDIT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/logging.h"

namespace juggler {

class AuditLog {
 public:
  static constexpr size_t kMaxMessages = 64;

  void Violation(const std::string& where, const std::string& what) {
    ++violations_;
    if (messages_.size() < kMaxMessages) {
      messages_.push_back(where + ": " + what);
    }
    JUG_WARN("invariant violation [%s] %s", where.c_str(), what.c_str());
  }

  uint64_t violations() const { return violations_; }
  const std::vector<std::string>& messages() const { return messages_; }
  bool clean() const { return violations_ == 0; }

  // Fold another log's violations in, quietly (they were warned about when
  // first recorded). Used to merge a harness-private log into the shared
  // one at the end of a run.
  void MergeFrom(const AuditLog& other) {
    violations_ += other.violations_;
    for (const std::string& m : other.messages_) {
      if (messages_.size() >= kMaxMessages) {
        break;
      }
      messages_.push_back(m);
    }
  }

  void Clear() {
    violations_ = 0;
    messages_.clear();
  }

 private:
  uint64_t violations_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_FAULT_AUDIT_LOG_H_
