#include "c4d/incident.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>

namespace c4::c4d {

using fault::FaultType;

namespace {

/** Link-down events closer than this form one incident (the two
 * directions of a cable, plus the immediate reroute cascade). */
constexpr Duration kLinkGroupWindow = milliseconds(50);

/** Link-failure groups within this span merge into a storm. */
constexpr Duration kStormWindow = seconds(30);

/** Minimum groups for a storm verdict. */
constexpr int kStormMinLinks = 3;

/** CNP comparison span on each side of a degradation onset. */
constexpr Duration kCnpWindow = seconds(60);

/** after/before mean-CNP ratio that counts as corroborating. */
constexpr double kCnpSpikeRatio = 1.5;

/** Steering decisions for one job within this span are one incident (a
 * restart retry is not a second crash). */
constexpr Duration kSyndromeCooldown = minutes(5);

} // namespace

const char *
incidentKindName(IncidentKind k)
{
    switch (k) {
      case IncidentKind::LinkFailure:     return "link_failure";
      case IncidentKind::PortDegradation: return "port_degradation";
      case IncidentKind::NodeCrash:       return "node_crash";
      case IncidentKind::FaultStorm:      return "fault_storm";
    }
    return "?";
}

bool
incidentKindFromName(const std::string &name, IncidentKind &out)
{
    for (int k = 0; k < 4; ++k) {
        const auto kind = static_cast<IncidentKind>(k);
        if (name == incidentKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

void
IncidentAnalyzer::addToGroups(std::vector<EventGroup> &groups, Time when,
                              std::int64_t link, std::int64_t flows,
                              double scale)
{
    if (groups.empty() || when - groups.back().last > kLinkGroupWindow) {
        EventGroup g;
        g.start = g.last = when;
        g.minLink = link;
        g.count = 1;
        g.flows = flows;
        g.minScale = scale;
        groups.push_back(g);
        return;
    }
    EventGroup &g = groups.back();
    g.last = when;
    if (link >= 0 && (g.minLink < 0 || link < g.minLink))
        g.minLink = link;
    ++g.count;
    g.flows += flows;
    g.minScale = std::min(g.minScale, scale);
}

void
IncidentAnalyzer::onEvent(const trace::Event &ev)
{
    // Fields are read per trace.h's field table.
    switch (ev.kind) {
      case trace::EventKind::FaultInjected: {
        // The anti-cheating seam (see telemetry.h): injected faults
        // model the out-of-band hardware monitors, so only classes
        // that leave a hardware trace may enter the log the detectors
        // consult.
        FaultType type;
        if (!fault::faultTypeFromName(ev.detail, type) ||
            !faultVisibleInHardwareLogs(type))
            return;
        HardwareLogEntry entry;
        entry.when = ev.when;
        entry.node = ev.node;
        entry.type = type;
        entry.detail = fault::faultTypeName(type);
        rca_.ingestHardwareEvent(entry);
        return;
      }
      case trace::EventKind::PathRealloc: {
        trace::PathReallocKind sub;
        if (!trace::pathReallocFromName(ev.detail, sub))
            return;
        // Link recoveries and restorations to nominal close an
        // incident, they don't open one.
        if (sub == trace::PathReallocKind::LinkDown) {
            addToGroups(downGroups_, ev.when, static_cast<LinkId>(ev.a),
                        static_cast<std::int64_t>(ev.value), 1.0);
        } else if (sub == trace::PathReallocKind::LinkScale &&
                   ev.value < 1.0) {
            addToGroups(scaleGroups_, ev.when, static_cast<LinkId>(ev.a),
                        ev.b, ev.value);
        }
        return;
      }
      case trace::EventKind::CnpSample:
        cnp_.push_back({ev.when, ev.value});
        return;
      case trace::EventKind::SteeringDecision:
        restarts_.push_back({ev.when, ev.job, ev.b != 0});
        return;
      default:
        return;
    }
}

bool
IncidentAnalyzer::cnpElevatedAround(Time onset) const
{
    double beforeSum = 0.0, afterSum = 0.0;
    int beforeN = 0, afterN = 0;
    for (const CnpPoint &s : cnp_) {
        if (s.when < onset && onset - s.when <= kCnpWindow) {
            beforeSum += s.meanKps;
            ++beforeN;
        } else if (s.when >= onset && s.when - onset <= kCnpWindow) {
            afterSum += s.meanKps;
            ++afterN;
        }
    }
    if (beforeN == 0 || afterN == 0)
        return false;
    const double beforeMean = beforeSum / beforeN;
    const double afterMean = afterSum / afterN;
    return afterMean > 0.0 && afterMean >= kCnpSpikeRatio * beforeMean;
}

void
IncidentAnalyzer::emitLinkVerdicts(std::vector<IncidentVerdict> &out) const
{
    const std::size_t n = downGroups_.size();
    std::size_t i = 0;
    while (i < n) {
        // Extend the run while groups keep landing inside kStormWindow
        // of the run's first group.
        std::size_t j = i;
        while (j + 1 < n && downGroups_[j + 1].start -
                                    downGroups_[i].start <=
                                kStormWindow)
            ++j;
        const std::size_t run = j - i + 1;
        if (run >= static_cast<std::size_t>(kStormMinLinks)) {
            IncidentVerdict v;
            v.kind = IncidentKind::FaultStorm;
            // Callable as a storm the moment the Nth distinct link
            // drops — that is the detection latency, not run end.
            v.detectedAt =
                downGroups_[i + kStormMinLinks - 1].start;
            v.cause = "link-down";
            v.corroborated = rca_.explainSyndrome(
                                 v.detectedAt, SyndromeClass::Fabric) !=
                             nullptr;
            v.confidence = 0.9;
            std::int64_t flows = 0;
            for (std::size_t g = i; g <= j; ++g)
                flows += downGroups_[g].flows;
            v.evidence = "links=" + std::to_string(run) +
                         " reroutes=" + std::to_string(flows);
            out.push_back(std::move(v));
        } else {
            for (std::size_t g = i; g <= j; ++g) {
                const EventGroup &grp = downGroups_[g];
                IncidentVerdict v;
                v.kind = IncidentKind::LinkFailure;
                v.link = grp.minLink;
                v.detectedAt = grp.start;
                v.cause = "link-down";
                v.corroborated =
                    rca_.explainSyndrome(grp.start,
                                         SyndromeClass::Fabric) !=
                    nullptr;
                // Reroutes mean live flows crossed the link — direct
                // impact evidence; a dark link is softer.
                v.confidence = grp.flows > 0 ? 0.95 : 0.8;
                v.evidence = "links=" + std::to_string(grp.count) +
                             " reroutes=" + std::to_string(grp.flows);
                out.push_back(std::move(v));
            }
        }
        i = j + 1;
    }
}

void
IncidentAnalyzer::emitScaleVerdicts(std::vector<IncidentVerdict> &out) const
{
    for (const EventGroup &grp : scaleGroups_) {
        IncidentVerdict v;
        v.kind = IncidentKind::PortDegradation;
        v.link = grp.minLink;
        v.detectedAt = grp.start;
        if (const HardwareLogEntry *hw = rca_.explainSyndrome(
                grp.start, SyndromeClass::Degradation)) {
            v.node = hw->node;
            v.cause = fault::faultTypeName(hw->type);
            v.corroborated = true;
            v.confidence = 0.9;
        } else {
            v.cause = "network-other";
            v.confidence = 0.6;
        }
        char scale[32];
        std::snprintf(scale, sizeof(scale), "%.2f", grp.minScale);
        v.evidence = "ports=" + std::to_string(grp.count) +
                     " scale=" + scale;
        if (cnpElevatedAround(grp.start)) {
            v.evidence += "+cnp";
            v.confidence = std::min(0.99, v.confidence + 0.05);
        }
        out.push_back(std::move(v));
    }
}

void
IncidentAnalyzer::emitSyndromeVerdicts(
    std::vector<IncidentVerdict> &out) const
{
    std::map<JobId, Time> lastForJob;
    for (const Restart &s : restarts_) {
        const auto it = lastForJob.find(s.job);
        if (it != lastForJob.end() &&
            s.when - it->second < kSyndromeCooldown)
            continue; // restart retry, not a second incident
        lastForJob[s.job] = s.when;
        const std::string via =
            std::string("restart via=") + (s.viaC4d ? "c4d" : "watchdog");

        if (const HardwareLogEntry *hw = rca_.explainSyndrome(
                s.when, SyndromeClass::Fatal)) {
            IncidentVerdict v;
            v.kind = IncidentKind::NodeCrash;
            v.node = hw->node;
            v.detectedAt = s.when;
            v.cause = fault::faultTypeName(hw->type);
            v.corroborated = true;
            v.confidence = 0.95;
            v.evidence = via;
            out.push_back(std::move(v));
            continue;
        }
        if (const HardwareLogEntry *hw = rca_.explainSyndrome(
                s.when, SyndromeClass::Degradation)) {
            // A restart triggered by a degraded port: if the port
            // telemetry already produced the verdict, the restart is
            // extra evidence for it, not a second incident.
            auto dup = std::find_if(
                out.begin(), out.end(),
                [&](const IncidentVerdict &v) {
                    return v.kind == IncidentKind::PortDegradation &&
                           v.node == hw->node;
                });
            if (dup != out.end()) {
                dup->evidence += "+steered";
                continue;
            }
            IncidentVerdict v;
            v.kind = IncidentKind::PortDegradation;
            v.node = hw->node;
            v.detectedAt = s.when;
            v.cause = fault::faultTypeName(hw->type);
            v.corroborated = true;
            v.confidence = 0.85;
            v.evidence = via;
            out.push_back(std::move(v));
            continue;
        }
        if (rca_.explainSyndrome(s.when, SyndromeClass::Fabric))
            continue; // the link verdict already owns this incident

        // Silent hardware logs + a dead job: the rca.h syndrome prior —
        // process death in user/runtime space, unlocalized.
        IncidentVerdict v;
        v.kind = IncidentKind::NodeCrash;
        v.detectedAt = s.when;
        v.cause = fault::faultTypeName(FaultType::CudaError);
        v.confidence = s.viaC4d ? 0.6 : 0.4;
        v.evidence = "silent-logs " + via;
        out.push_back(std::move(v));
    }
}

std::vector<IncidentVerdict>
IncidentAnalyzer::finish()
{
    assert(!finished_ && "finish() is single-shot");
    finished_ = true;
    std::vector<IncidentVerdict> out;
    emitLinkVerdicts(out);
    emitScaleVerdicts(out);
    emitSyndromeVerdicts(out);
    // Stable: ties keep emission order (link, scale, syndrome), which
    // is itself deterministic, so the verdict list is reproducible
    // byte for byte.
    std::stable_sort(out.begin(), out.end(),
                     [](const IncidentVerdict &a,
                        const IncidentVerdict &b) {
                         return a.detectedAt < b.detectedAt;
                     });
    return out;
}

} // namespace c4::c4d
