#include "common/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <vector>

namespace pdnspot
{

namespace
{

/** Guards the sink, the threshold, and emission itself, so swapped
 * sinks never observe a half-written message. */
std::mutex g_logMutex;
LogLevel g_threshold = LogLevel::Info;
LogSink g_sink; ///< empty = default stderr sink

void
defaultSink(LogLevel severity, const std::string &msg)
{
    std::cerr << nameOf(severity) << ": " << msg << "\n";
}

void
emit(LogLevel severity, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    if (static_cast<int>(severity) < static_cast<int>(g_threshold))
        return;
    if (g_sink)
        g_sink(severity, msg);
    else
        defaultSink(severity, msg);
}

} // namespace

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(len));
}

std::string
joinStrings(const std::vector<std::string> &parts,
            const char *separator)
{
    std::string out;
    for (const std::string &part : parts) {
        if (!out.empty())
            out += separator;
        out += part;
    }
    return out;
}

void
fatal(const std::string &msg)
{
    throw ConfigError(msg);
}

void
panic(const std::string &msg)
{
    throw ModelError("panic: " + msg);
}

void
warn(const std::string &msg)
{
    emit(LogLevel::Warn, msg);
}

void
inform(const std::string &msg)
{
    emit(LogLevel::Info, msg);
}

LogLevel
setLogThreshold(LogLevel level)
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    LogLevel previous = g_threshold;
    g_threshold = level;
    return previous;
}

LogLevel
logThreshold()
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    return g_threshold;
}

LogSink
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(g_logMutex);
    LogSink previous = std::move(g_sink);
    g_sink = std::move(sink);
    return previous;
}

ScopedLogCapture::ScopedLogCapture()
{
    _previousSink = setLogSink(
        [this](LogLevel severity, const std::string &msg) {
            _entries.push_back(Entry{severity, msg});
        });
    _previousThreshold = setLogThreshold(LogLevel::Info);
}

ScopedLogCapture::~ScopedLogCapture()
{
    setLogThreshold(_previousThreshold);
    setLogSink(std::move(_previousSink));
}

size_t
ScopedLogCapture::count(LogLevel severity,
                        const std::string &substring) const
{
    size_t n = 0;
    for (const Entry &e : _entries) {
        if (e.severity != severity)
            continue;
        if (!substring.empty() &&
            e.message.find(substring) == std::string::npos)
            continue;
        ++n;
    }
    return n;
}

} // namespace pdnspot
