#include "specio/specio.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "scenario/cli.h"
#include "scenario/runner.h"

namespace c4::specio {

using scenario::AllreduceGroupSpec;
using scenario::CampaignSpec;
using scenario::FaultSpec;
using scenario::FeatureSpec;
using scenario::JobSpec;
using scenario::LinkEventSpec;
using scenario::MetricsSpec;
using scenario::RunOptions;
using scenario::Scenario;
using scenario::ScenarioSpec;
using scenario::TopologySpec;

namespace {

// --- enum name tables -------------------------------------------------

template <typename E>
struct EnumName
{
    E value;
    const char *name;
};

constexpr EnumName<TopologySpec::Kind> kTopologyKinds[] = {
    {TopologySpec::Kind::Testbed, "testbed"},
    {TopologySpec::Kind::Pod, "pod"},
};

constexpr EnumName<core::PlacementStrategy> kPlacements[] = {
    {core::PlacementStrategy::Packed, "packed"},
    {core::PlacementStrategy::Scattered, "scattered"},
};

constexpr EnumName<AllreduceGroupSpec::Placement> kTaskPlacements[] = {
    {AllreduceGroupSpec::Placement::CrossSegmentPairs,
     "cross_segment_pairs"},
    {AllreduceGroupSpec::Placement::SpreadAcrossSegments,
     "spread_across_segments"},
    {AllreduceGroupSpec::Placement::Explicit, "explicit"},
};

constexpr EnumName<net::Plane> kPlanes[] = {
    {net::Plane::Left, "left"},
    {net::Plane::Right, "right"},
};

constexpr EnumName<fault::FaultType> kFaultTypes[] = {
    {fault::FaultType::CudaError, "cuda_error"},
    {fault::FaultType::EccError, "ecc_error"},
    {fault::FaultType::NvlinkError, "nvlink_error"},
    {fault::FaultType::NcclTimeout, "nccl_timeout"},
    {fault::FaultType::AckTimeout, "ack_timeout"},
    {fault::FaultType::NetworkOther, "network_other"},
    {fault::FaultType::SlowNode, "slow_node"},
    {fault::FaultType::SlowNicTx, "slow_nic_tx"},
    {fault::FaultType::SlowNicRx, "slow_nic_rx"},
    {fault::FaultType::LinkDown, "link_down"},
};

constexpr EnumName<CampaignSpec::Rates> kCampaignRates[] = {
    {CampaignSpec::Rates::June2023, "june2023"},
    {CampaignSpec::Rates::December2023, "december2023"},
};

constexpr EnumName<c4d::C4dEventKind> kEventKinds[] = {
    {c4d::C4dEventKind::CommHang, "comm_hang"},
    {c4d::C4dEventKind::NonCommHang, "non_comm_hang"},
    {c4d::C4dEventKind::CommSlow, "comm_slow"},
    {c4d::C4dEventKind::NonCommSlow, "non_comm_slow"},
};

template <typename E, std::size_t N>
const char *
enumToName(const EnumName<E> (&table)[N], E value)
{
    for (const EnumName<E> &e : table) {
        if (e.value == value)
            return e.name;
    }
    return "?";
}

// --- duration <-> decimal-seconds text --------------------------------

/** Exact decimal seconds for an integer-nanosecond duration. */
std::string
secondsText(Duration ns)
{
    const bool negative = ns < 0;
    // Two's-complement negate in unsigned space: INT64_MIN-safe.
    const std::uint64_t abs =
        negative ? 0 - static_cast<std::uint64_t>(ns)
                 : static_cast<std::uint64_t>(ns);
    std::string out = negative ? "-" : "";
    out += std::to_string(abs / 1000000000ull);
    const std::uint64_t frac = abs % 1000000000ull;
    if (frac != 0) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%09llu",
                      static_cast<unsigned long long>(frac));
        std::string digits = buf;
        while (digits.back() == '0')
            digits.pop_back();
        out += "." + digits;
    }
    return out;
}

/**
 * Parse a JSON number token as seconds into exact nanoseconds using
 * integer arithmetic (sub-nanosecond digits round half away from
 * zero). Returns false when the magnitude overflows.
 */
bool
secondsTokenToNanos(const std::string &token, Duration &out)
{
    std::size_t i = 0;
    bool negative = false;
    if (i < token.size() && token[i] == '-') {
        negative = true;
        ++i;
    }
    std::string digits;
    int pointExponent = 0; // decimal exponent of the digit string
    bool seenPoint = false;
    for (; i < token.size(); ++i) {
        const char c = token[i];
        if (c >= '0' && c <= '9') {
            // Leading zeros carry no value; keeping them out makes
            // the digit-count overflow check meaningful.
            if (!(digits.empty() && c == '0'))
                digits.push_back(c);
            if (seenPoint)
                --pointExponent;
        } else if (c == '.') {
            seenPoint = true;
        } else if (c == 'e' || c == 'E') {
            break;
        } else {
            return false;
        }
    }
    int exponent = 0;
    if (i < token.size()) { // at 'e' / 'E'
        exponent = std::atoi(token.c_str() + i + 1);
        if (exponent > 40 || exponent < -40)
            return false;
    }
    exponent += pointExponent + 9; // seconds -> nanoseconds

    // Strip trailing zeros into the exponent to minimize magnitude.
    while (!digits.empty() && digits.back() == '0') {
        digits.pop_back();
        ++exponent;
    }
    if (digits.empty()) {
        out = 0;
        return true;
    }
    if (digits.size() > 19)
        return false; // more precision than an int64 can hold
    if (exponent < -19) {
        out = 0; // below half a nanosecond; rounds to zero
        return true;
    }

    std::int64_t value = 0;
    for (char c : digits) {
        if (value >
            (std::numeric_limits<std::int64_t>::max() - 9) / 10) {
            return false;
        }
        value = value * 10 + (c - '0');
    }
    for (; exponent > 0; --exponent) {
        if (value > std::numeric_limits<std::int64_t>::max() / 10)
            return false;
        value *= 10;
    }
    std::int64_t rounder = 1;
    for (; exponent < -1; ++exponent)
        rounder *= 10;
    if (rounder > 1 || exponent == -1) {
        // One divide-by-10 left after bulk division: round half away
        // from zero on the final digit.
        value /= rounder;
        value = (value + 5) / 10;
    }
    out = negative ? -value : value;
    return true;
}

// --- binder -----------------------------------------------------------

int
editDistance(const std::string &a, const std::string &b)
{
    std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = static_cast<int>(j);
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = static_cast<int>(i);
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const int sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

/**
 * Typed, typo-detecting access to one JSON object. Every get() marks
 * its key as known; finish() rejects whatever keys remain, suggesting
 * the nearest known key.
 */
class Binder
{
  public:
    Binder(const Json &obj, std::string context)
        : obj_(obj), context_(std::move(context))
    {
        if (obj_.kind != Json::Kind::Object) {
            throw SpecError(context_ + " must be an object, not " +
                                Json::kindName(obj_.kind),
                            obj_.line, obj_.column);
        }
    }

    ~Binder() = default;
    Binder(const Binder &) = delete;
    Binder &operator=(const Binder &) = delete;

    /** Raw member access (arrays / nested objects); marks key known. */
    const Json *
    member(const char *key)
    {
        known_.push_back(key);
        const Json::Member *m = obj_.find(key);
        return m ? &m->value : nullptr;
    }

    void
    get(const char *key, bool &out)
    {
        if (const Json *v = member(key)) {
            require(*v, Json::Kind::Bool, key);
            out = v->boolean;
        }
    }

    void
    get(const char *key, int &out)
    {
        if (const Json *v = member(key)) {
            require(*v, Json::Kind::Int, key);
            if (v->integer < std::numeric_limits<int>::min() ||
                v->integer > std::numeric_limits<int>::max()) {
                fail(*v, std::string("\"") + key +
                             "\" is out of integer range");
            }
            out = static_cast<int>(v->integer);
        }
    }

    void
    get(const char *key, std::int64_t &out)
    {
        if (const Json *v = member(key)) {
            require(*v, Json::Kind::Int, key);
            out = v->integer;
        }
    }

    void
    get(const char *key, double &out)
    {
        if (const Json *v = member(key)) {
            if (v->kind == Json::Kind::Int)
                out = static_cast<double>(v->integer);
            else if (v->kind == Json::Kind::Double)
                out = v->number;
            else
                fail(*v, std::string("\"") + key +
                             "\" must be a number, not " +
                             Json::kindName(v->kind));
        }
    }

    void
    get(const char *key, std::string &out)
    {
        if (const Json *v = member(key)) {
            require(*v, Json::Kind::String, key);
            out = v->string;
        }
    }

    /** Duration/Time key, expressed in seconds in the document. */
    void
    getSeconds(const char *key, std::int64_t &out)
    {
        if (const Json *v = member(key)) {
            if (v->kind != Json::Kind::Int &&
                v->kind != Json::Kind::Double) {
                fail(*v, std::string("\"") + key +
                             "\" must be a number of seconds, not " +
                             Json::kindName(v->kind));
            }
            const std::string &token =
                v->raw.empty() ? std::to_string(v->integer) : v->raw;
            Duration ns = 0;
            if (!secondsTokenToNanos(token, ns)) {
                fail(*v, std::string("\"") + key + "\" value '" +
                             token +
                             "' does not fit an integer-nanosecond "
                             "duration");
            }
            out = ns;
        }
    }

    void
    getSeed(const char *key, std::uint64_t &out)
    {
        const Json *v = member(key);
        if (!v)
            return;
        if (v->kind == Json::Kind::Int && v->integer >= 0) {
            out = static_cast<std::uint64_t>(v->integer);
            return;
        }
        if (v->kind == Json::Kind::String) {
            // Strict shape check first: strtoull alone would skip
            // whitespace, wrap negatives, and read "077" as octal.
            const std::string &s = v->string;
            int base = 10;
            std::size_t digits = 0;
            if (s.size() > 2 && s[0] == '0' &&
                (s[1] == 'x' || s[1] == 'X')) {
                base = 16;
                digits = 2;
            }
            bool wellFormed = s.size() > digits;
            for (std::size_t i = digits; i < s.size(); ++i) {
                const auto c = static_cast<unsigned char>(s[i]);
                if (!(base == 16 ? std::isxdigit(c)
                                 : std::isdigit(c))) {
                    wellFormed = false;
                    break;
                }
            }
            if (wellFormed) {
                errno = 0;
                out = std::strtoull(s.c_str(), nullptr, base);
                if (errno == 0)
                    return;
            }
        }
        fail(*v, std::string("\"") + key +
                     "\" must be a non-negative integer or a "
                     "\"0x...\" string");
    }

    template <typename E, std::size_t N>
    void
    getEnum(const char *key, E &out, const EnumName<E> (&table)[N])
    {
        const Json *v = member(key);
        if (!v)
            return;
        require(*v, Json::Kind::String, key);
        for (const EnumName<E> &e : table) {
            if (v->string == e.name) {
                out = e.value;
                return;
            }
        }
        std::string allowed;
        for (const EnumName<E> &e : table) {
            if (!allowed.empty())
                allowed += ", ";
            allowed += std::string("\"") + e.name + "\"";
        }
        fail(*v, std::string("\"") + key + "\" value \"" + v->string +
                     "\" is not one of " + allowed);
    }

    /** Array of integers (node lists). */
    void
    getIntArray(const char *key, std::vector<NodeId> &out)
    {
        const Json *v = member(key);
        if (!v)
            return;
        require(*v, Json::Kind::Array, key);
        out = intArray(*v, key);
    }

    std::vector<NodeId>
    intArray(const Json &v, const char *key) const
    {
        std::vector<NodeId> out;
        out.reserve(v.array.size());
        for (const Json &e : v.array) {
            if (e.kind != Json::Kind::Int) {
                fail(e, std::string("\"") + key +
                            "\" entries must be integers, not " +
                            Json::kindName(e.kind));
            }
            out.push_back(static_cast<NodeId>(e.integer));
        }
        return out;
    }

    /** Reject leftover keys, suggesting the nearest known one. */
    void
    finish()
    {
        for (const Json::Member &m : obj_.object) {
            if (std::find(known_.begin(), known_.end(), m.key) !=
                known_.end()) {
                continue;
            }
            std::string message = "unknown key \"" + m.key + "\" in " +
                                  context_;
            int best = 3; // suggest only within edit distance 2
            const char *suggestion = nullptr;
            for (const char *k : known_) {
                const int d = editDistance(m.key, k);
                if (d < best) {
                    best = d;
                    suggestion = k;
                }
            }
            if (suggestion) {
                message += std::string(", did you mean \"") +
                           suggestion + "\"?";
            }
            throw SpecError(message, m.keyLine, m.keyColumn);
        }
    }

    [[noreturn]] void
    fail(const Json &at, const std::string &message) const
    {
        throw SpecError(message + " in " + context_, at.line,
                        at.column);
    }

  private:
    void
    require(const Json &v, Json::Kind kind, const char *key) const
    {
        if (v.kind != kind) {
            fail(v, std::string("\"") + key + "\" must be a " +
                        Json::kindName(kind) + ", not " +
                        Json::kindName(v.kind));
        }
    }

    const Json &obj_;
    std::string context_;
    std::vector<const char *> known_;
};

// --- struct binders ---------------------------------------------------

void
bindTopology(const Json &doc, TopologySpec &out,
             const std::string &context)
{
    Binder b(doc, context);
    b.getEnum("kind", out.kind, kTopologyKinds);
    b.get("num_nodes", out.numNodes);
    b.get("oversubscription", out.oversubscription);
    b.get("nodes_per_segment", out.nodesPerSegment);
    b.get("nvlink_bus_bw_bps", out.nvlinkBusBandwidth);
    b.finish();
}

void
bindFeatures(const Json &doc, FeatureSpec &out,
             const std::string &context)
{
    Binder b(doc, context);
    b.get("c4p", out.c4p);
    b.get("dual_port_rule", out.dualPortRule);
    b.get("spine_rule", out.spineRule);
    b.get("dynamic_load_balance", out.dynamicLoadBalance);
    b.get("spray_paths", out.sprayPaths);
    b.get("qps_per_connection", out.qpsPerConnection);
    b.get("c4d", out.c4d);
    b.getSeconds("evaluate_period_s", out.evaluatePeriod);
    b.getSeconds("hang_threshold_s", out.hangThreshold);
    b.getSeconds("min_wait_for_slow_s", out.minWaitForSlow);
    b.get("isolate_on_slow", out.isolateOnSlow);
    b.getSeconds("isolation_delay_s", out.isolationDelay);
    b.get("backup_nodes", out.backupNodes);
    b.getSeconds("fabric_coalesce_window_s", out.fabricCoalesceWindow);
    b.finish();
}

void
bindParallel(const Json &doc, train::ParallelismSpec &out,
             const std::string &context)
{
    Binder b(doc, context);
    b.get("tp", out.tp);
    b.get("pp", out.pp);
    b.get("dp", out.dp);
    b.get("ep", out.ep);
    b.get("gradient_accumulation", out.gradientAccumulation);
    b.get("zero_stage", out.zeroStage);
    b.finish();
}

void
bindJob(const Json &doc, JobSpec &out, const std::string &context)
{
    Binder b(doc, context);
    int id = out.id;
    b.get("id", id);
    out.id = static_cast<JobId>(id);
    b.get("name", out.name);
    b.get("model", out.model);
    b.getSeconds("microbatch_compute_s", out.microbatchCompute);
    if (const Json *v = b.member("parallel"))
        bindParallel(*v, out.parallel, context + ".parallel");
    b.get("micro_batch", out.microBatch);
    b.getSeconds("init_time_s", out.initTime);
    b.get("dp_groups_simulated", out.dpGroupsSimulated);
    b.get("checkpoint_interval_iters", out.checkpointIntervalIters);
    b.getSeconds("checkpoint_cost_s", out.checkpointCost);
    b.getSeconds("hang_watchdog_timeout_s", out.hangWatchdogTimeout);
    b.getIntArray("nodes", out.nodes);
    b.getEnum("placement", out.placement, kPlacements);
    b.finish();
}

void
bindAllreduce(const Json &doc, AllreduceGroupSpec &out,
              const std::string &context)
{
    Binder b(doc, context);
    b.get("tasks", out.tasks);
    b.getEnum("placement", out.placement, kTaskPlacements);
    b.get("nodes_per_task", out.nodesPerTask);
    if (const Json *v = b.member("explicit_nodes")) {
        if (v->kind != Json::Kind::Array) {
            b.fail(*v, "\"explicit_nodes\" must be an array of node "
                       "lists");
        }
        for (const Json &e : v->array) {
            if (e.kind != Json::Kind::Array) {
                b.fail(e, "\"explicit_nodes\" entries must be arrays "
                          "of node ids");
            }
            out.explicitNodes.push_back(
                b.intArray(e, "explicit_nodes"));
        }
    }
    b.get("bytes", out.bytes);
    b.get("iterations", out.iterations);
    b.finish();
}

void
bindLinkEvent(const Json &doc, LinkEventSpec &out,
              const std::string &context)
{
    Binder b(doc, context);
    b.getSeconds("at_s", out.at);
    b.get("segment", out.segment);
    b.getEnum("plane", out.plane, kPlanes);
    b.get("spine", out.spine);
    b.get("up", out.up);
    b.finish();
}

void
bindFault(const Json &doc, FaultSpec &out, const std::string &context)
{
    Binder b(doc, context);
    b.getSeconds("at_s", out.at);
    b.getEnum("type", out.type, kFaultTypes);
    int job = out.job;
    b.get("job", job);
    out.job = static_cast<JobId>(job);
    b.get("job_node_index", out.jobNodeIndex);
    int node = out.node;
    b.get("node", node);
    out.node = static_cast<NodeId>(node);
    b.get("all_nics", out.allNics);
    int nic = out.nic;
    b.get("nic", nic);
    out.nic = static_cast<NicId>(nic);
    b.get("severity", out.severity);
    b.finish();
}

void
bindCampaign(const Json &doc, CampaignSpec &out,
             const std::string &context)
{
    Binder b(doc, context);
    b.get("enabled", out.enabled);
    b.getEnum("rates", out.rates, kCampaignRates);
    b.get("scale", out.scale);
    b.getSeconds("span_s", out.span);
    b.finish();
}

void
bindMetrics(const Json &doc, MetricsSpec &out,
            const std::string &context)
{
    Binder b(doc, context);
    b.get("task_busbw", out.taskBusBw);
    b.get("per_task", out.perTask);
    b.getSeconds("split_at_s", out.splitAt);
    b.get("job_throughput", out.jobThroughput);
    b.get("job_comm_share", out.jobCommShare);
    b.get("job_segments", out.jobSegments);
    b.get("steering_counters", out.steeringCounters);
    b.getSeconds("cnp_sample_period_s", out.cnpSamplePeriod);
    int cnpNic = out.cnpNic;
    b.get("cnp_nic", cnpNic);
    out.cnpNic = static_cast<NicId>(cnpNic);
    b.getSeconds("uplink_sample_period_s", out.uplinkSamplePeriod);
    b.get("uplink_segment", out.uplinkSegment);
    b.getEnum("uplink_plane", out.uplinkPlane, kPlanes);
    b.get("detection", out.detection);
    b.getEnum("detection_kind", out.detectionKind, kEventKinds);
    b.finish();
}

void
bindVariant(const Json &doc, ScenarioSpec &out,
            const std::string &context)
{
    Binder b(doc, context);
    b.get("variant", out.variant);
    if (const Json *v = b.member("topology"))
        bindTopology(*v, out.topology, context + ".topology");
    if (const Json *v = b.member("features"))
        bindFeatures(*v, out.features, context + ".features");
    if (const Json *v = b.member("jobs")) {
        if (v->kind != Json::Kind::Array)
            b.fail(*v, "\"jobs\" must be an array");
        for (std::size_t i = 0; i < v->array.size(); ++i) {
            JobSpec job;
            bindJob(v->array[i], job,
                    context + ".jobs[" + std::to_string(i) + "]");
            out.jobs.push_back(std::move(job));
        }
    }
    if (const Json *v = b.member("allreduces")) {
        if (v->kind != Json::Kind::Array)
            b.fail(*v, "\"allreduces\" must be an array");
        for (std::size_t i = 0; i < v->array.size(); ++i) {
            AllreduceGroupSpec group;
            bindAllreduce(v->array[i], group,
                          context + ".allreduces[" +
                              std::to_string(i) + "]");
            out.allreduces.push_back(std::move(group));
        }
    }
    if (const Json *v = b.member("link_events")) {
        if (v->kind != Json::Kind::Array)
            b.fail(*v, "\"link_events\" must be an array");
        for (std::size_t i = 0; i < v->array.size(); ++i) {
            LinkEventSpec event;
            bindLinkEvent(v->array[i], event,
                          context + ".link_events[" +
                              std::to_string(i) + "]");
            out.linkEvents.push_back(event);
        }
    }
    if (const Json *v = b.member("faults")) {
        if (v->kind != Json::Kind::Array)
            b.fail(*v, "\"faults\" must be an array");
        for (std::size_t i = 0; i < v->array.size(); ++i) {
            FaultSpec faultSpec;
            bindFault(v->array[i], faultSpec,
                      context + ".faults[" + std::to_string(i) + "]");
            out.faults.push_back(faultSpec);
        }
    }
    if (const Json *v = b.member("campaign"))
        bindCampaign(*v, out.campaign, context + ".campaign");
    if (const Json *v = b.member("metrics"))
        bindMetrics(*v, out.metrics, context + ".metrics");
    b.getSeconds("horizon_s", out.horizon);
    b.getSeconds("abort_at_s", out.abortAt);
    b.get("abort_trial", out.abortTrial);
    bool custom = false;
    b.get("custom", custom);
    if (custom) {
        // The built-in this was dumped from runs code, not data; a
        // reloaded copy can only hold the variant's declarative shell.
        out.custom = [](scenario::TrialContext &) {
            throw std::runtime_error(
                "this variant was dumped from a scenario with a "
                "custom (code-defined) executor; it cannot run from "
                "a spec file");
        };
    }
    b.finish();
}

// --- writers ----------------------------------------------------------

Json
jsonString(const std::string &s)
{
    Json v;
    v.kind = Json::Kind::String;
    v.string = s;
    return v;
}

Json
jsonBool(bool b)
{
    Json v;
    v.kind = Json::Kind::Bool;
    v.boolean = b;
    return v;
}

Json
jsonInt(std::int64_t i)
{
    Json v;
    v.kind = Json::Kind::Int;
    v.integer = i;
    return v;
}

Json
jsonDouble(double d)
{
    Json v;
    v.kind = Json::Kind::Double;
    v.number = d;
    return v;
}

/** Seconds value carrying exact decimal text derived from @p ns. */
Json
jsonSeconds(Duration ns)
{
    Json v;
    const std::string text = secondsText(ns);
    if (text.find('.') == std::string::npos) {
        v.kind = Json::Kind::Int;
        v.integer = ns / 1000000000;
    } else {
        v.kind = Json::Kind::Double;
        v.raw = text;
        v.number = std::strtod(text.c_str(), nullptr);
    }
    return v;
}

Json
jsonSeed(std::uint64_t seed)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llX",
                  static_cast<unsigned long long>(seed));
    return jsonString(buf);
}

Json
jsonNodeList(const std::vector<NodeId> &nodes)
{
    Json v;
    v.kind = Json::Kind::Array;
    for (NodeId n : nodes)
        v.array.push_back(jsonInt(n));
    return v;
}

void
add(Json &obj, const char *key, Json value)
{
    Json::Member m;
    m.key = key;
    m.value = std::move(value);
    obj.object.push_back(std::move(m));
}

Json
emptyObject()
{
    Json v;
    v.kind = Json::Kind::Object;
    return v;
}

template <typename E, std::size_t N>
Json
jsonEnum(const EnumName<E> (&table)[N], E value)
{
    return jsonString(enumToName(table, value));
}

Json
topologyToJson(const TopologySpec &t)
{
    const TopologySpec def;
    Json o = emptyObject();
    if (t.kind != def.kind)
        add(o, "kind", jsonEnum(kTopologyKinds, t.kind));
    if (t.numNodes != def.numNodes)
        add(o, "num_nodes", jsonInt(t.numNodes));
    if (t.oversubscription != def.oversubscription)
        add(o, "oversubscription", jsonDouble(t.oversubscription));
    if (t.nodesPerSegment != def.nodesPerSegment)
        add(o, "nodes_per_segment", jsonInt(t.nodesPerSegment));
    if (t.nvlinkBusBandwidth != def.nvlinkBusBandwidth)
        add(o, "nvlink_bus_bw_bps", jsonDouble(t.nvlinkBusBandwidth));
    return o;
}

Json
featuresToJson(const FeatureSpec &f)
{
    const FeatureSpec def;
    Json o = emptyObject();
    if (f.c4p != def.c4p)
        add(o, "c4p", jsonBool(f.c4p));
    if (f.dualPortRule != def.dualPortRule)
        add(o, "dual_port_rule", jsonBool(f.dualPortRule));
    if (f.spineRule != def.spineRule)
        add(o, "spine_rule", jsonBool(f.spineRule));
    if (f.dynamicLoadBalance != def.dynamicLoadBalance)
        add(o, "dynamic_load_balance",
            jsonBool(f.dynamicLoadBalance));
    if (f.sprayPaths != def.sprayPaths)
        add(o, "spray_paths", jsonBool(f.sprayPaths));
    if (f.qpsPerConnection != def.qpsPerConnection)
        add(o, "qps_per_connection", jsonInt(f.qpsPerConnection));
    if (f.c4d != def.c4d)
        add(o, "c4d", jsonBool(f.c4d));
    if (f.evaluatePeriod != def.evaluatePeriod)
        add(o, "evaluate_period_s", jsonSeconds(f.evaluatePeriod));
    if (f.hangThreshold != def.hangThreshold)
        add(o, "hang_threshold_s", jsonSeconds(f.hangThreshold));
    if (f.minWaitForSlow != def.minWaitForSlow)
        add(o, "min_wait_for_slow_s", jsonSeconds(f.minWaitForSlow));
    if (f.isolateOnSlow != def.isolateOnSlow)
        add(o, "isolate_on_slow", jsonBool(f.isolateOnSlow));
    if (f.isolationDelay != def.isolationDelay)
        add(o, "isolation_delay_s", jsonSeconds(f.isolationDelay));
    if (f.backupNodes != def.backupNodes)
        add(o, "backup_nodes", jsonInt(f.backupNodes));
    if (f.fabricCoalesceWindow != def.fabricCoalesceWindow)
        add(o, "fabric_coalesce_window_s",
            jsonSeconds(f.fabricCoalesceWindow));
    return o;
}

Json
parallelToJson(const train::ParallelismSpec &p)
{
    const train::ParallelismSpec def;
    Json o = emptyObject();
    if (p.tp != def.tp)
        add(o, "tp", jsonInt(p.tp));
    if (p.pp != def.pp)
        add(o, "pp", jsonInt(p.pp));
    if (p.dp != def.dp)
        add(o, "dp", jsonInt(p.dp));
    if (p.ep != def.ep)
        add(o, "ep", jsonInt(p.ep));
    if (p.gradientAccumulation != def.gradientAccumulation)
        add(o, "gradient_accumulation",
            jsonInt(p.gradientAccumulation));
    if (p.zeroStage != def.zeroStage)
        add(o, "zero_stage", jsonInt(p.zeroStage));
    return o;
}

Json
jobToJson(const JobSpec &j)
{
    const JobSpec def;
    Json o = emptyObject();
    if (j.id != def.id)
        add(o, "id", jsonInt(j.id));
    if (!j.name.empty())
        add(o, "name", jsonString(j.name));
    if (j.model != def.model)
        add(o, "model", jsonString(j.model));
    if (j.microbatchCompute != def.microbatchCompute)
        add(o, "microbatch_compute_s",
            jsonSeconds(j.microbatchCompute));
    Json parallel = parallelToJson(j.parallel);
    if (!parallel.object.empty())
        add(o, "parallel", std::move(parallel));
    if (j.microBatch != def.microBatch)
        add(o, "micro_batch", jsonInt(j.microBatch));
    if (j.initTime != def.initTime)
        add(o, "init_time_s", jsonSeconds(j.initTime));
    if (j.dpGroupsSimulated != def.dpGroupsSimulated)
        add(o, "dp_groups_simulated", jsonInt(j.dpGroupsSimulated));
    if (j.checkpointIntervalIters != def.checkpointIntervalIters)
        add(o, "checkpoint_interval_iters",
            jsonInt(j.checkpointIntervalIters));
    if (j.checkpointCost != def.checkpointCost)
        add(o, "checkpoint_cost_s", jsonSeconds(j.checkpointCost));
    if (j.hangWatchdogTimeout != def.hangWatchdogTimeout)
        add(o, "hang_watchdog_timeout_s",
            jsonSeconds(j.hangWatchdogTimeout));
    if (!j.nodes.empty())
        add(o, "nodes", jsonNodeList(j.nodes));
    if (j.placement != def.placement)
        add(o, "placement", jsonEnum(kPlacements, j.placement));
    return o;
}

Json
allreduceToJson(const AllreduceGroupSpec &g)
{
    const AllreduceGroupSpec def;
    Json o = emptyObject();
    if (g.tasks != def.tasks)
        add(o, "tasks", jsonInt(g.tasks));
    if (g.placement != def.placement)
        add(o, "placement", jsonEnum(kTaskPlacements, g.placement));
    if (g.nodesPerTask != def.nodesPerTask)
        add(o, "nodes_per_task", jsonInt(g.nodesPerTask));
    if (!g.explicitNodes.empty()) {
        Json lists;
        lists.kind = Json::Kind::Array;
        for (const std::vector<NodeId> &nodes : g.explicitNodes)
            lists.array.push_back(jsonNodeList(nodes));
        add(o, "explicit_nodes", std::move(lists));
    }
    if (g.bytes != def.bytes)
        add(o, "bytes", jsonInt(g.bytes));
    if (g.iterations != def.iterations)
        add(o, "iterations", jsonInt(g.iterations));
    return o;
}

Json
linkEventToJson(const LinkEventSpec &e)
{
    const LinkEventSpec def;
    Json o = emptyObject();
    if (e.at != def.at)
        add(o, "at_s", jsonSeconds(e.at));
    if (e.segment != def.segment)
        add(o, "segment", jsonInt(e.segment));
    if (e.plane != def.plane)
        add(o, "plane", jsonEnum(kPlanes, e.plane));
    if (e.spine != def.spine)
        add(o, "spine", jsonInt(e.spine));
    if (e.up != def.up)
        add(o, "up", jsonBool(e.up));
    return o;
}

Json
faultToJson(const FaultSpec &f)
{
    const FaultSpec def;
    Json o = emptyObject();
    if (f.at != def.at)
        add(o, "at_s", jsonSeconds(f.at));
    if (f.type != def.type)
        add(o, "type", jsonEnum(kFaultTypes, f.type));
    if (f.job != def.job)
        add(o, "job", jsonInt(f.job));
    if (f.jobNodeIndex != def.jobNodeIndex)
        add(o, "job_node_index", jsonInt(f.jobNodeIndex));
    if (f.node != def.node)
        add(o, "node", jsonInt(f.node));
    if (f.allNics != def.allNics)
        add(o, "all_nics", jsonBool(f.allNics));
    if (f.nic != def.nic)
        add(o, "nic", jsonInt(f.nic));
    if (f.severity != def.severity)
        add(o, "severity", jsonDouble(f.severity));
    return o;
}

Json
campaignToJson(const CampaignSpec &c)
{
    const CampaignSpec def;
    Json o = emptyObject();
    if (c.enabled != def.enabled)
        add(o, "enabled", jsonBool(c.enabled));
    if (c.rates != def.rates)
        add(o, "rates", jsonEnum(kCampaignRates, c.rates));
    if (c.scale != def.scale)
        add(o, "scale", jsonDouble(c.scale));
    if (c.span != def.span)
        add(o, "span_s", jsonSeconds(c.span));
    return o;
}

Json
metricsToJson(const MetricsSpec &m)
{
    const MetricsSpec def;
    Json o = emptyObject();
    if (m.taskBusBw != def.taskBusBw)
        add(o, "task_busbw", jsonBool(m.taskBusBw));
    if (m.perTask != def.perTask)
        add(o, "per_task", jsonBool(m.perTask));
    if (m.splitAt != def.splitAt)
        add(o, "split_at_s", jsonSeconds(m.splitAt));
    if (m.jobThroughput != def.jobThroughput)
        add(o, "job_throughput", jsonBool(m.jobThroughput));
    if (m.jobCommShare != def.jobCommShare)
        add(o, "job_comm_share", jsonBool(m.jobCommShare));
    if (m.jobSegments != def.jobSegments)
        add(o, "job_segments", jsonBool(m.jobSegments));
    if (m.steeringCounters != def.steeringCounters)
        add(o, "steering_counters", jsonBool(m.steeringCounters));
    if (m.cnpSamplePeriod != def.cnpSamplePeriod)
        add(o, "cnp_sample_period_s", jsonSeconds(m.cnpSamplePeriod));
    if (m.cnpNic != def.cnpNic)
        add(o, "cnp_nic", jsonInt(m.cnpNic));
    if (m.uplinkSamplePeriod != def.uplinkSamplePeriod)
        add(o, "uplink_sample_period_s",
            jsonSeconds(m.uplinkSamplePeriod));
    if (m.uplinkSegment != def.uplinkSegment)
        add(o, "uplink_segment", jsonInt(m.uplinkSegment));
    if (m.uplinkPlane != def.uplinkPlane)
        add(o, "uplink_plane", jsonEnum(kPlanes, m.uplinkPlane));
    if (m.detection != def.detection)
        add(o, "detection", jsonBool(m.detection));
    if (m.detectionKind != def.detectionKind)
        add(o, "detection_kind",
            jsonEnum(kEventKinds, m.detectionKind));
    return o;
}

Json
variantToJson(const ScenarioSpec &spec)
{
    Json o = emptyObject();
    add(o, "variant", jsonString(spec.variant));
    Json topology = topologyToJson(spec.topology);
    if (!topology.object.empty())
        add(o, "topology", std::move(topology));
    Json features = featuresToJson(spec.features);
    if (!features.object.empty())
        add(o, "features", std::move(features));
    if (!spec.jobs.empty()) {
        Json jobs;
        jobs.kind = Json::Kind::Array;
        for (const JobSpec &j : spec.jobs)
            jobs.array.push_back(jobToJson(j));
        add(o, "jobs", std::move(jobs));
    }
    if (!spec.allreduces.empty()) {
        Json groups;
        groups.kind = Json::Kind::Array;
        for (const AllreduceGroupSpec &g : spec.allreduces)
            groups.array.push_back(allreduceToJson(g));
        add(o, "allreduces", std::move(groups));
    }
    if (!spec.linkEvents.empty()) {
        Json events;
        events.kind = Json::Kind::Array;
        for (const LinkEventSpec &e : spec.linkEvents)
            events.array.push_back(linkEventToJson(e));
        add(o, "link_events", std::move(events));
    }
    if (!spec.faults.empty()) {
        Json faults;
        faults.kind = Json::Kind::Array;
        for (const FaultSpec &f : spec.faults)
            faults.array.push_back(faultToJson(f));
        add(o, "faults", std::move(faults));
    }
    Json campaign = campaignToJson(spec.campaign);
    if (!campaign.object.empty())
        add(o, "campaign", std::move(campaign));
    Json metrics = metricsToJson(spec.metrics);
    if (!metrics.object.empty())
        add(o, "metrics", std::move(metrics));
    if (spec.horizon != 0)
        add(o, "horizon_s", jsonSeconds(spec.horizon));
    if (spec.abortAt != 0)
        add(o, "abort_at_s", jsonSeconds(spec.abortAt));
    if (spec.abortTrial != -1)
        add(o, "abort_trial", jsonInt(spec.abortTrial));
    if (spec.custom)
        add(o, "custom", jsonBool(true));
    return o;
}

bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) ||
              c == '_' || c == '-' || c == '.')) {
            return false;
        }
    }
    return true;
}

} // namespace

SpecFile
specFromScenario(const Scenario &scenario, const RunOptions &opt)
{
    SpecFile file;
    file.name = scenario.name;
    file.title = scenario.title;
    file.description = scenario.description;
    file.notes = scenario.notes;
    file.fullTrials = scenario.fullTrials;
    file.smokeTrials = scenario.smokeTrials;
    // The dump captures the run the flags describe, not the built-in
    // defaults: an overridden seed / trial count must replay from the
    // file exactly as it ran.
    file.seed = opt.seedSet ? opt.seed : scenario.seed;
    if (opt.trials > 0) {
        (opt.smoke ? file.smokeTrials : file.fullTrials) = opt.trials;
    }
    file.trialBegin = scenario.trialBegin;
    file.trialCount = scenario.trialCount;
    file.variants = scenario.variants(opt);
    return file;
}

Scenario
scenarioFromSpec(const SpecFile &file)
{
    Scenario s;
    s.name = file.name;
    s.title = file.title;
    s.description = file.description;
    s.notes = file.notes;
    s.fullTrials = file.fullTrials;
    s.smokeTrials = file.smokeTrials;
    s.trialBegin = file.trialBegin;
    s.trialCount = file.trialCount;
    s.seed = file.seed;
    s.variants = [variants = file.variants](const RunOptions &) {
        return variants;
    };
    return s;
}

std::string
writeSpecFile(const SpecFile &file)
{
    Json doc = emptyObject();
    add(doc, "scenario", jsonString(file.name));
    if (!file.title.empty())
        add(doc, "title", jsonString(file.title));
    if (!file.description.empty())
        add(doc, "description", jsonString(file.description));
    if (!file.notes.empty())
        add(doc, "notes", jsonString(file.notes));
    if (file.fullTrials != 1)
        add(doc, "full_trials", jsonInt(file.fullTrials));
    if (file.smokeTrials != 1)
        add(doc, "smoke_trials", jsonInt(file.smokeTrials));
    if (file.trialBegin != 0)
        add(doc, "trial_begin", jsonInt(file.trialBegin));
    if (file.trialCount != 0)
        add(doc, "trial_count", jsonInt(file.trialCount));
    add(doc, "seed", jsonSeed(file.seed));
    Json variants;
    variants.kind = Json::Kind::Array;
    for (const ScenarioSpec &spec : file.variants)
        variants.array.push_back(variantToJson(spec));
    add(doc, "variants", std::move(variants));
    return writeJson(doc);
}

SpecFile
parseSpecFile(const std::string &text)
{
    const Json doc = parseJson(text);
    SpecFile file;
    Binder b(doc, "the spec document");
    b.get("scenario", file.name);
    if (!validName(file.name)) {
        throw SpecError("\"scenario\" must name the scenario "
                        "([A-Za-z0-9_.-]+, required)",
                        doc.line, doc.column);
    }
    b.get("title", file.title);
    b.get("description", file.description);
    b.get("notes", file.notes);
    b.get("full_trials", file.fullTrials);
    b.get("smoke_trials", file.smokeTrials);
    b.get("trial_begin", file.trialBegin);
    b.get("trial_count", file.trialCount);
    b.getSeed("seed", file.seed);
    const Json *variants = b.member("variants");
    if (!variants || variants->kind != Json::Kind::Array ||
        variants->array.empty()) {
        throw SpecError("\"variants\" must be a non-empty array",
                        variants ? variants->line : doc.line,
                        variants ? variants->column : doc.column);
    }
    if (file.fullTrials < 1 || file.smokeTrials < 1) {
        throw SpecError("trial counts must be >= 1", doc.line,
                        doc.column);
    }
    // Shard range sanity against the file's own sweep width. The
    // runner re-validates against whatever trial count is actually in
    // effect (--trials can override), so this catches authoring
    // mistakes early, with the file's line info.
    const std::string badRange = scenario::validateTrialRange(
        file.trialBegin, file.trialCount,
        std::max(file.fullTrials, file.smokeTrials));
    if (!badRange.empty())
        throw SpecError(badRange, doc.line, doc.column);
    for (std::size_t i = 0; i < variants->array.size(); ++i) {
        const Json &v = variants->array[i];
        ScenarioSpec spec;
        bindVariant(v, spec,
                    "variants[" + std::to_string(i) + "]");
        const std::string invalid = scenario::validateSpec(spec);
        if (!invalid.empty())
            throw SpecError(invalid, v.line, v.column);
        // A duplicated label (the copy-a-variant-block-and-forget-
        // to-rename mistake) would silently aggregate two different
        // configs into one table column / CSV key.
        for (const ScenarioSpec &seen : file.variants) {
            if (seen.variant == spec.variant) {
                throw SpecError("duplicate variant label \"" +
                                    spec.variant + "\"",
                                v.line, v.column);
            }
        }
        file.variants.push_back(std::move(spec));
    }
    b.finish();
    return file;
}

SpecFile
loadSpecFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SpecError(path + ": cannot open spec file", 0, 0);
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return parseSpecFile(text.str());
    } catch (const SpecError &e) {
        throw SpecError(path + ": " + e.what(), 0, 0);
    }
}

void
installSpecCliHooks()
{
    scenario::SpecCliHooks hooks;
    hooks.loadAndRegister = [](const std::string &path) {
        SpecFile file = loadSpecFile(path);
        const bool replaced =
            scenario::Registry::instance().addOrReplace(
                scenarioFromSpec(file));
        if (replaced) {
            std::fprintf(stderr,
                         "note: spec file '%s' replaces registered "
                         "scenario '%s'\n",
                         path.c_str(), file.name.c_str());
        }
        return file.name;
    };
    hooks.dump = [](const Scenario &scenario, const RunOptions &opt) {
        return writeSpecFile(specFromScenario(scenario, opt));
    };
    scenario::setSpecCliHooks(std::move(hooks));
}

} // namespace c4::specio
