/**
 * @file
 * File-backed phase traces: CSV and JSON import/export.
 *
 * Campaigns can run on measured workloads by loading recorded phase
 * traces from disk (workload/trace_source.hh dispatches here for
 * file-kind TraceSpecs). Two formats are supported, both validated
 * phase by phase at the import boundary with positional errors:
 *
 * CSV — one phase per row, exact round trip with writeTraceCsv:
 *
 *   duration_s,cstate,type,ar
 *   0.04,C0,single-thread,0.45
 *   0.12,C8,battery-life,0.3
 *
 * Errors carry "source:line" positions. Numbers use the shortest
 * exact form (common/csv.hh), so write -> read -> write is a byte
 * fixpoint.
 *
 * JSON — a {"phases": [...]} document parsed with src/config/json,
 * so every error carries a "file:line:col" position:
 *
 *   {"phases": [
 *     {"duration_ms": 40.0, "cstate": "C0",
 *      "type": "single-thread", "ar": 0.45},
 *     {"duration_ms": 120.0, "cstate": "C8"}
 *   ]}
 *
 * "type" and "ar" are C0-only fields: active phases default to the
 * TracePhase defaults, idle phases are pinned to the battery-life
 * convention (type battery-life, AR 0.3) and reject explicit
 * overrides instead of silently simulating garbage.
 */

#ifndef PDNSPOT_WORKLOAD_TRACE_IO_HH
#define PDNSPOT_WORKLOAD_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "workload/trace.hh"

namespace pdnspot
{

class JsonValue;

/** The CSV header row written and required by the CSV trace format. */
extern const char *const traceCsvHeader;

/**
 * Read a CSV phase trace. `name` becomes the trace's name (trace CSV
 * files carry no name; callers derive one from the file stem or a
 * spec-level override); `sourceName` labels error positions.
 * fatal() (ConfigError) with "sourceName:line: message" on any
 * malformed or invalid row.
 */
PhaseTrace readTraceCsv(std::istream &is, const std::string &name,
                        const std::string &sourceName);

/** readTraceCsv over a file; the file path labels error positions. */
PhaseTrace readTraceCsvFile(const std::string &path,
                            const std::string &name);

/**
 * Write a trace in the CSV format readTraceCsv accepts. Numbers use
 * shortest-round-trip formatting: write -> read -> write is a byte
 * fixpoint and read(write(t)) reproduces t's phases exactly.
 */
void writeTraceCsv(std::ostream &os, const PhaseTrace &trace);

/**
 * Bind a parsed {"phases": [...]} JSON document to a PhaseTrace
 * named `name`. Every binding error is a positional ConfigError.
 */
PhaseTrace traceFromJson(const JsonValue &root,
                         const std::string &name);

/**
 * traceFromJson over a parsed file; fatal() naming the trace file
 * when it cannot be opened.
 */
PhaseTrace readTraceJsonFile(const std::string &path,
                             const std::string &name);

/**
 * Load a trace file, dispatching on the extension: ".csv" ->
 * readTraceCsvFile, ".json" -> readTraceJsonFile; fatal() on any
 * other extension.
 */
PhaseTrace readTraceFile(const std::string &path,
                         const std::string &name);

/**
 * The file stem ("traces/office.csv" -> "office"): the default name
 * for file-backed traces.
 */
std::string traceFileStem(const std::string &path);

} // namespace pdnspot

#endif // PDNSPOT_WORKLOAD_TRACE_IO_HH
