/**
 * @file
 * The one interface C4D's stream consumers implement.
 *
 * C4D diagnoses from one stream of observations taken at the
 * communication layer. The repo records that stream once, as
 * trace::Event; trace/trace.h's field table is the only statement of
 * what each field means. A TelemetrySink receives those events in
 * timestamp order with no Simulator or Cluster in sight: live, from
 * the steering service and the CNP sampler, and replayed, from
 * replay::feedTrace over a parsed JSONL trace. Both paths hand the
 * sink the same events, which is the property the live-vs-replay
 * byte-identity gate in test_replay.cc pins.
 *
 * Anti-cheating contract: fault_injected events mirror the
 * out-of-band hardware monitors of rca.h ("the simulator's fault
 * injector doubles as these monitors"). A detector may only use them
 * for fault classes where faultVisibleInHardwareLogs() is true.
 * Everything else it concludes has to come from the observable
 * events: link state, CNP samples, steering decisions, job lifecycle.
 */

#ifndef C4_C4D_TELEMETRY_H
#define C4_C4D_TELEMETRY_H

#include "trace/trace.h"

namespace c4::c4d {

/** Consumer of the telemetry stream. The base class ignores every
 * event, so it doubles as a null sink. */
class TelemetrySink
{
  public:
    virtual ~TelemetrySink() = default;

    /** One event; calls arrive in nondecreasing timestamp order (ties
     * in stream order). */
    virtual void onEvent(const trace::Event &) {}
};

} // namespace c4::c4d

#endif // C4_C4D_TELEMETRY_H
