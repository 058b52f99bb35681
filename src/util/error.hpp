// Error handling for the resched library.
//
// Invariant violations throw resched::Error; RESCHED_CHECK is used at public
// API boundaries (argument validation) and RESCHED_ASSERT for internal
// invariants that indicate a library bug.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace resched {

/// Exception thrown on precondition or invariant violation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), message_(what) {}
  Error(const std::string& what, std::string message)
      : std::runtime_error(what), message_(std::move(message)) {}

  /// What a client may be told: the message alone. For RESCHED_CHECK and
  /// RESCHED_ASSERT failures what() adds the failed expression and the
  /// source file and line, which belong in logs, not in responses.
  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {
[[noreturn]] inline void fail(const char* kind, const char* expr,
                              const char* file, int line,
                              const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str(), msg.empty() ? std::string(kind) + " failed" : msg);
}
}  // namespace detail

}  // namespace resched

/// Validates a caller-supplied precondition; throws resched::Error on failure.
#define RESCHED_CHECK(cond, msg)                                            \
  do {                                                                      \
    if (!(cond))                                                            \
      ::resched::detail::fail("precondition", #cond, __FILE__, __LINE__,    \
                              (msg));                                       \
  } while (0)

/// Validates an internal invariant; a failure indicates a bug in resched.
#define RESCHED_ASSERT(cond, msg)                                           \
  do {                                                                      \
    if (!(cond))                                                            \
      ::resched::detail::fail("invariant", #cond, __FILE__, __LINE__,       \
                              (msg));                                       \
  } while (0)
