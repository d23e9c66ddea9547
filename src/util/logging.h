// Leveled logging with a process-global threshold.
//
// The behavioral switches log state transitions (pipeline drain, template
// writes) at kDebug; the controller logs applied commands at kInfo. Tests
// raise the threshold to keep output quiet.
//
// IPSA_LOG checks the threshold first: a statement below it evaluates none
// of its `<<` operands and builds no stream, so a disabled log line on a
// control path (every ApplyScript, every design load) costs one compare.
// Operands must therefore not carry side effects the program relies on.
#pragma once

#include <sstream>
#include <string>

namespace ipsa::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(GetLogLevel());
}

// Emits a formatted line to stderr if `level` passes the threshold.
void LogLine(LogLevel level, const std::string& message);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { LogLine(level_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Turns `stream << a << b` into a void expression, so IPSA_LOG can be the
// false arm of a conditional whose true arm is (void)0. `&` binds looser
// than `<<` and tighter than `?:`.
struct LogVoidify {
  void operator&(const LogMessage&) {}
};

}  // namespace internal
}  // namespace ipsa::util

#define IPSA_LOG(level)                                              \
  !::ipsa::util::LogEnabled(::ipsa::util::LogLevel::level)           \
      ? (void)0                                                      \
      : ::ipsa::util::internal::LogVoidify() &                       \
            ::ipsa::util::internal::LogMessage(                      \
                ::ipsa::util::LogLevel::level)
