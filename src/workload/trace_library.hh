/**
 * @file
 * Named trace registry for batch simulation.
 *
 * Campaign cells are addressed by trace name (src/campaign/), so the
 * traces fed into one campaign must carry unique, CSV-safe names.
 * TraceLibrary enforces that at insertion time; standardCampaignTraces
 * packages the synthetic corpus (generator traces + the four
 * battery-life profiles) used by the example studies.
 */

#ifndef PDNSPOT_WORKLOAD_TRACE_LIBRARY_HH
#define PDNSPOT_WORKLOAD_TRACE_LIBRARY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/trace.hh"

namespace pdnspot
{

/** An ordered collection of uniquely-named traces. */
class TraceLibrary
{
  public:
    /**
     * Register a trace. fatal() if the name is empty, contains CSV
     * metacharacters (commas/newlines), or is already registered.
     */
    void add(PhaseTrace trace);

    const std::vector<PhaseTrace> &traces() const { return _traces; }

    /** The registered trace names, in insertion order. */
    std::vector<std::string> names() const;

    /** Lookup by name; nullptr when absent. */
    const PhaseTrace *find(const std::string &name) const;

    /**
     * Lookup by name; fatal() when absent, naming the missing trace
     * and listing what the library holds.
     */
    const PhaseTrace &get(const std::string &name) const;

    size_t size() const { return _traces.size(); }
    bool empty() const { return _traces.empty(); }

  private:
    std::vector<PhaseTrace> _traces;
};

/**
 * The standard nine-trace campaign corpus, reproducible from `seed`:
 * a bursty-compute trace, the day-in-the-life trace, three
 * random-mix traces (seeds seed, seed+1, seed+2), and the four
 * battery-life residency profiles expanded to frame traces.
 */
TraceLibrary standardCampaignTraces(uint64_t seed);

} // namespace pdnspot

#endif // PDNSPOT_WORKLOAD_TRACE_LIBRARY_HH
