/**
 * @file
 * Waveform serialization: columnar CSV and Chrome/Perfetto counter
 * tracks. Both are output formats; nothing in the library reads them
 * back.
 *
 * The CSV layout is one file per probed cell (the cell identity
 * lives in the file name, Waveform::cellName):
 *
 *   record,phase,t_s,duration_s,<signal columns...>,detail
 *   sample,0,0,0.02,14.2,12.1,...,
 *   mode_switch,37,0.74,,,,...,LDO-Mode
 *
 * "sample" rows carry one value per signal column and an empty
 * detail; event rows ("mode_switch") carry empty signal/duration
 * fields and the switch's target mode as the detail. All samples precede
 * all events. Numbers use csvExactDouble (shortest round-trip form),
 * and tests/golden/probe_waveform.csv pins the bytes.
 *
 * Counter tracks reuse the trace-event JSON the span recorder
 * already emits: one "C" event per sample per signal plus an instant
 * ("i") event per waveform event, timestamped in *simulated*
 * microseconds, under a per-cell synthetic pid
 * (probeCounterPidBase + global cell index) with a process_name
 * metadata record — so waveforms from different shards, thread
 * counts, or runs concatenate without pid collisions, and simulated
 * signals render next to tool spans on one Perfetto timeline.
 */

#ifndef PDNSPOT_OBS_WAVEFORM_IO_HH
#define PDNSPOT_OBS_WAVEFORM_IO_HH

#include <string>
#include <vector>

#include "config/json.hh"
#include "obs/probe.hh"

namespace pdnspot
{

/**
 * Counter-track pids start here; adding the global campaign cell
 * index keeps them unique across shards (tool spans use the shard
 * index as pid — see TraceEventExport in obs/span_trace.hh).
 */
inline constexpr uint64_t probeCounterPidBase = 1000000;

/** Serialize one waveform as columnar CSV (see the file comment). */
std::string writeWaveformCsv(const Waveform &waveform);

/**
 * The waveform as Chrome trace events: a process_name "M" metadata
 * record, one "C" counter event per sample per signal, and one "i"
 * instant event per waveform event, all under the cell's synthetic
 * pid. Append these to a span recorder's export or wrap them with
 * traceEventDocument() (obs/span_trace.hh).
 */
std::vector<JsonValue> waveformCounterEvents(const Waveform &waveform);

} // namespace pdnspot

#endif // PDNSPOT_OBS_WAVEFORM_IO_HH
