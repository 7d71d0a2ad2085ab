/**
 * @file
 * Minimal CSV tokenizing and locale-independent number formatting,
 * shared by the trace reader and the CSV writers.
 *
 * Our CSV dialect is deliberately tiny: comma-separated fields, no
 * quoting, no escapes (writers reject field values containing commas
 * or newlines instead). Numbers always use the classic "C" locale:
 * '.' decimal point, no digit grouping.
 */

#ifndef PDNSPOT_COMMON_CSV_HH
#define PDNSPOT_COMMON_CSV_HH

#include <string>
#include <vector>

namespace pdnspot
{

/** Split one line on commas. "a,,b" -> {"a", "", "b"}; "" -> {""}. */
std::vector<std::string> splitCsvLine(const std::string &line);

/**
 * Format a double with the shortest representation that parses back
 * to exactly the same value (std::to_chars round-trip guarantee:
 * std::from_chars of the result gives back v bit for bit).
 */
std::string csvExactDouble(double v);

/** True iff the value is safe as an unquoted CSV field. */
bool csvFieldSafe(const std::string &field);

} // namespace pdnspot

#endif // PDNSPOT_COMMON_CSV_HH
