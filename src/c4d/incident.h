/**
 * @file
 * Incident-level diagnosis over a telemetry stream.
 *
 * Where analyzer.h localizes one syndrome inside one collective and
 * rca.h explains one C4D event, this module works at the granularity
 * the replay corpus is labeled at: it consumes a whole run's
 * trace::Event stream (live or replayed — see telemetry.h) and emits
 * one verdict per distinct incident it can defend. Verdicts are
 * deterministic pure functions of the event stream, so replaying a
 * recorded trace yields byte-identical output to the live run that
 * produced it.
 *
 * Detection sources, per kind:
 *  - LinkFailure: switch telemetry (path_realloc link_down events),
 *    the two directions of a cable grouped into one incident by time.
 *  - FaultStorm: >= kStormMinLinks link-failure groups inside
 *    kStormWindow collapse into one storm verdict (the fabric's
 *    coalescing case), detected when the Nth group arrives.
 *  - PortDegradation: link_scale telemetry below 1.0, localized to a
 *    node via the RCA hardware log when a Slow* entry corroborates,
 *    with CNP elevation after onset as supporting evidence.
 *  - NodeCrash: a steering decision (job restart) whose RCA window
 *    holds a fatal hardware entry — or, with silent logs, the
 *    syndrome prior (runtime death, unlocalized, low confidence).
 */

#ifndef C4_C4D_INCIDENT_H
#define C4_C4D_INCIDENT_H

#include <string>
#include <vector>

#include "c4d/rca.h"
#include "c4d/telemetry.h"
#include "common/types.h"

namespace c4::c4d {

/** Incident categories the corpus labels use. */
enum class IncidentKind : std::int8_t {
    LinkFailure = 0,
    PortDegradation,
    NodeCrash,
    FaultStorm,
};

/** Stable wire name ("link_failure", ...) used in labels/verdicts. */
const char *incidentKindName(IncidentKind k);

/** @return true and set @p out if @p name is a known kind name. */
bool incidentKindFromName(const std::string &name, IncidentKind &out);

/** One detected incident. */
struct IncidentVerdict
{
    IncidentKind kind = IncidentKind::LinkFailure;
    NodeId node = kInvalidId;    ///< culprit node, or -1 if unlocalized
    std::int64_t link = -1;      ///< culprit link id, or -1
    Time detectedAt = 0;         ///< when the detector could first call it
    std::string cause;           ///< fault-type name, or "unknown"
    bool corroborated = false;   ///< hardware log backed the call
    double confidence = 0.0;
    std::string evidence;        ///< compact human-readable support
};

/**
 * Streaming incident detector: feed events via onEvent in timestamp
 * order, then call finish() once for the run's verdicts (sorted by
 * detection time, stream order on ties).
 */
class IncidentAnalyzer final : public TelemetrySink
{
  public:
    void onEvent(const trace::Event &ev) override;

    /** Close open groups, resolve syndromes against the now-complete
     * hardware log, and return the run's verdicts. Call once. */
    std::vector<IncidentVerdict> finish();

    /** The hardware-log model fed by fault_injected events (visible
     * classes only). */
    const RootCauseAnalyzer &rca() const { return rca_; }

  private:
    /** Link-down (or capacity-scale) events coalesced in time. */
    struct EventGroup
    {
        Time start = 0;
        Time last = 0;
        std::int64_t minLink = -1;
        int count = 0;
        std::int64_t flows = 0; ///< link-down: reroutes; scale: members
        double minScale = 1.0;  ///< scale groups only
    };

    RootCauseAnalyzer rca_;
    std::vector<EventGroup> downGroups_;
    std::vector<EventGroup> scaleGroups_;
    /** A cnp_sample's time and mean kp/s. */
    struct CnpPoint
    {
        Time when = 0;
        double meanKps = 0.0;
    };
    /** A steering_decision's time, job and path. */
    struct Restart
    {
        Time when = 0;
        JobId job = kInvalidId;
        bool viaC4d = false;
    };

    std::vector<CnpPoint> cnp_;
    std::vector<Restart> restarts_;
    bool finished_ = false;

    static void addToGroups(std::vector<EventGroup> &groups, Time when,
                            std::int64_t link, std::int64_t flows,
                            double scale);
    void emitLinkVerdicts(std::vector<IncidentVerdict> &out) const;
    void emitScaleVerdicts(std::vector<IncidentVerdict> &out) const;
    void emitSyndromeVerdicts(std::vector<IncidentVerdict> &out) const;
    bool cnpElevatedAround(Time onset) const;
};

} // namespace c4::c4d

#endif // C4_C4D_INCIDENT_H
