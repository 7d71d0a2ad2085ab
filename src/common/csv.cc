#include "common/csv.hh"

#include <charconv>
#include <system_error>

#include "common/logging.hh"

namespace pdnspot
{

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> fields;
    size_t start = 0;
    for (;;) {
        size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            fields.push_back(line.substr(start));
            return fields;
        }
        fields.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

std::string
csvExactDouble(double v)
{
    // Shortest round-trip form; 32 chars covers any double.
    char buf[32];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        panic("csvExactDouble: to_chars failed");
    return std::string(buf, ptr);
}

bool
csvFieldSafe(const std::string &field)
{
    return field.find_first_of(",\n\r") == std::string::npos;
}

} // namespace pdnspot
