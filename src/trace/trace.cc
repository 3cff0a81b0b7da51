#include "trace/trace.h"

namespace c4::trace {

namespace {

// Views of string literals, so data() is null-terminated.
constexpr std::string_view kKindNames[kNumEventKinds] = {
    "fault_injected",    // FaultInjected
    "fault_recovered",   // FaultRecovered
    "steering_decision", // SteeringDecision
    "path_realloc",      // PathRealloc
    "cnp_sample",        // CnpSample
    "job_arrival",       // JobArrival
    "job_departure",     // JobDeparture
    "recompute_begin",   // RecomputeBegin
    "recompute_end",     // RecomputeEnd
};

constexpr std::string_view kPathReallocNames[kNumPathReallocKinds] = {
    "alloc",      // Alloc
    "repin",      // Repin
    "link_up",    // LinkUp
    "link_down",  // LinkDown
    "link_scale", // LinkScale
};

std::string
knownKindList()
{
    std::string out;
    for (int k = 0; k < kNumEventKinds; ++k) {
        if (k > 0)
            out += ", ";
        out += kKindNames[k];
    }
    return out;
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    const int k = static_cast<int>(kind);
    return k >= 0 && k < kNumEventKinds ? kKindNames[k].data() : "?";
}

bool
eventKindFromName(std::string_view name, EventKind &out)
{
    for (int k = 0; k < kNumEventKinds; ++k) {
        if (name == kKindNames[k]) {
            out = static_cast<EventKind>(k);
            return true;
        }
    }
    return false;
}

const char *
pathReallocName(PathReallocKind kind)
{
    return kPathReallocNames[static_cast<int>(kind)].data();
}

bool
pathReallocFromName(std::string_view label, PathReallocKind &out)
{
    for (int k = 0; k < kNumPathReallocKinds; ++k) {
        if (label == kPathReallocNames[k]) {
            out = static_cast<PathReallocKind>(k);
            return true;
        }
    }
    return false;
}

std::string
parseKindFilter(const std::string &list, KindMask &out)
{
    KindMask mask = 0;
    std::size_t start = 0;
    bool any = false;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > start) {
            const std::string token =
                list.substr(start, end - start);
            EventKind kind;
            if (!eventKindFromName(token, kind)) {
                return "unknown trace event kind '" + token +
                       "' (known: " + knownKindList() + ")";
            }
            mask |= kindBit(kind);
            any = true;
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (!any)
        return "empty trace filter (known kinds: " + knownKindList() +
               ")";
    out = mask;
    return "";
}

} // namespace c4::trace
