/**
 * @file
 * Offline trace replay: recorded JSONL event traces fed back through
 * the incident analyzer with no live simulator.
 *
 * A replayed run is two steps:
 *
 *  - feedTrace: a ReplayClock driven by the trace's own timestamps
 *    hands each parsed trace::Event to a c4d::TelemetrySink. A
 *    regression in the record stream is a corrupted or hand-edited
 *    trace and aborts with the offending record index. The events
 *    need no decoding: the sink reads them per trace.h's field table,
 *    and parseJsonl has already rejected unknown kinds and labels.
 *  - replayTrace: feedTrace into a c4d::IncidentAnalyzer, producing
 *    the run's incident verdicts.
 *
 * Because live traces are byte-deterministic and the analyzer is a
 * pure function of the event stream, replaying a file yields verdicts
 * byte-identical to analyzing the live run that wrote it.
 */

#ifndef C4_REPLAY_REPLAY_H
#define C4_REPLAY_REPLAY_H

#include <string>
#include <vector>

#include "c4d/incident.h"
#include "c4d/telemetry.h"
#include "trace/trace.h"

namespace c4::replay {

/** Monotonic clock driven by replayed timestamps. */
class ReplayClock
{
  public:
    Time now() const { return now_; }

    /**
     * Advance to @p when (record index @p index, for diagnostics).
     * @throws std::runtime_error on a time regression.
     */
    void advanceTo(Time when, std::size_t index);

  private:
    Time now_ = 0;
};

/**
 * Stream a whole trace through @p sink under a ReplayClock.
 * @throws std::runtime_error on a time regression, naming the 1-based
 *         record number.
 */
void feedTrace(const std::vector<trace::Event> &events,
               c4d::TelemetrySink &sink);

/**
 * feedTrace already-parsed @p events into a fresh analyzer and return
 * its verdicts.
 */
std::vector<c4d::IncidentVerdict>
replayTrace(const std::vector<trace::Event> &events);

} // namespace c4::replay

#endif // C4_REPLAY_REPLAY_H
