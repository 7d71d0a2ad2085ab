/**
 * @file
 * Error-reporting and status-message helpers, following the gem5
 * fatal()/panic()/warn()/inform() convention.
 *
 * fatal()  - user-correctable misconfiguration; throws ConfigError so
 *            library callers can recover.
 * panic()  - internal invariant violation (a bug in this library);
 *            throws ModelError.
 * warn()   - suspicious but survivable condition.
 * inform() - plain status message.
 *
 * warn()/inform() route through a process-wide swappable sink
 * (default: stderr with a "warn: "/"info: " prefix) gated by a
 * severity threshold, so CLIs can implement --quiet/--log-level and
 * tests can capture-assert messages (ScopedLogCapture) instead of
 * letting them leak into CTest output.
 */

#ifndef PDNSPOT_COMMON_LOGGING_HH
#define PDNSPOT_COMMON_LOGGING_HH

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/names.hh"

namespace pdnspot
{

/**
 * Raised by fatal(): bad user input or configuration. what() is
 * "fatal: <message>"; a caller that re-raises the error with more
 * context (a file position) chains message(), so the result carries
 * one "fatal: " prefix.
 */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &message)
        : std::runtime_error("fatal: " + message), _message(message)
    {}

    const std::string &message() const { return _message; }

  private:
    std::string _message;
};

/** Raised by panic(): internal model invariant violated. */
class ModelError : public std::logic_error
{
  public:
    explicit ModelError(const std::string &what)
        : std::logic_error(what)
    {}
};

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * "a, b, c" joining for error messages that list alternatives
 * (available traces, valid keys, preset names, ...).
 */
std::string joinStrings(const std::vector<std::string> &parts,
                        const char *separator = ", ");

/** Report a user-correctable error. Never returns. */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal invariant violation. Never returns. */
[[noreturn]] void panic(const std::string &msg);

/** Report a suspicious but survivable condition. */
void warn(const std::string &msg);

/** Report a status message. */
void inform(const std::string &msg);

/**
 * Message severities, in threshold order: a threshold of Warn drops
 * inform() but keeps warn(); Silent drops both. fatal()/panic()
 * throw and are never filtered.
 */
enum class LogLevel
{
    Info = 0,
    Warn = 1,
    Silent = 2,
};

template <>
inline constexpr NameTable<LogLevel, 3> nameTable<LogLevel>{
    "log level",
    {{{LogLevel::Info, "info"},
      {LogLevel::Warn, "warn"},
      {LogLevel::Silent, "silent"}}}};
static_assert(inEnumOrder(nameTable<LogLevel>));

/**
 * Messages below `level` are dropped before reaching the sink.
 * Returns the previous threshold. Default: Info (everything).
 */
LogLevel setLogThreshold(LogLevel level);

LogLevel logThreshold();

/**
 * Where surviving messages go. The sink receives the severity and
 * the unprefixed message; the default sink writes
 * "warn: <msg>\n" / "info: <msg>\n" to stderr.
 */
using LogSink =
    std::function<void(LogLevel severity, const std::string &msg)>;

/**
 * Swap the sink; an empty function restores the default stderr
 * sink. Returns the previous sink (empty when the default was
 * active). Sink calls are serialized under an internal mutex.
 */
LogSink setLogSink(LogSink sink);

/**
 * RAII test helper: while alive, warn()/inform() append to this
 * capture (threshold forced to Info) instead of reaching the
 * previous sink; destruction restores both. Not for concurrent use
 * from multiple captures.
 */
class ScopedLogCapture
{
  public:
    struct Entry
    {
        LogLevel severity;
        std::string message; ///< unprefixed
    };

    ScopedLogCapture();
    ~ScopedLogCapture();

    ScopedLogCapture(const ScopedLogCapture &) = delete;
    ScopedLogCapture &operator=(const ScopedLogCapture &) = delete;

    const std::vector<Entry> &entries() const { return _entries; }

    /** Captured messages of `severity` containing `substring`. */
    size_t count(LogLevel severity,
                 const std::string &substring = "") const;

  private:
    std::vector<Entry> _entries;
    LogSink _previousSink;
    LogLevel _previousThreshold;
};

} // namespace pdnspot

#endif // PDNSPOT_COMMON_LOGGING_HH
