#include "specio/specio.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/jsonl_files.h"
#include "scenario/runner.h"

namespace c4::specio {

using scenario::AllreduceGroupSpec;
using scenario::CampaignSpec;
using scenario::Claim;
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

constexpr EnumName<Claim::Expect> kExpects[] = {
    {Claim::Expect::Above, "above"},
    {Claim::Expect::Below, "below"},
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
        const char *first = token.data() + i + 1;
        const char *last = token.data() + token.size();
        if (first != last && *first == '+')
            ++first; // from_chars takes no '+'
        // An exponent that overflows int is out of the bound too.
        const auto [end, ec] = std::from_chars(first, last, exponent);
        if (ec != std::errc() || end != last || exponent > 40 ||
            exponent < -40)
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

// --- field lists ----------------------------------------------------
//
// Each spec struct states its document keys once, in document order.
// A visitor gets one call per member:
//   v.field(key, &T::m)          plain values, nested structs, lists
//   v.seconds(key, &T::m)        durations, as decimal seconds
//   v.field(key, &T::m, names)   enums, by name
// Reader binds them from a document; Writer emits the members that
// differ from a default-constructed struct.

template <typename V>
void
fields(V &v, std::type_identity<TopologySpec>)
{
    using T = TopologySpec;
    v.field("kind", &T::kind, kTopologyKinds);
    v.field("num_nodes", &T::numNodes);
    v.field("oversubscription", &T::oversubscription);
    v.field("nodes_per_segment", &T::nodesPerSegment);
    v.field("nvlink_bus_bw_bps", &T::nvlinkBusBandwidth);
}

template <typename V>
void
fields(V &v, std::type_identity<FeatureSpec>)
{
    using T = FeatureSpec;
    v.field("c4p", &T::c4p);
    v.field("dual_port_rule", &T::dualPortRule);
    v.field("spine_rule", &T::spineRule);
    v.field("dynamic_load_balance", &T::dynamicLoadBalance);
    v.field("spray_paths", &T::sprayPaths);
    v.field("qps_per_connection", &T::qpsPerConnection);
    v.field("c4d", &T::c4d);
    v.seconds("evaluate_period_s", &T::evaluatePeriod);
    v.seconds("hang_threshold_s", &T::hangThreshold);
    v.seconds("min_wait_for_slow_s", &T::minWaitForSlow);
    v.field("isolate_on_slow", &T::isolateOnSlow);
    v.seconds("isolation_delay_s", &T::isolationDelay);
    v.field("backup_nodes", &T::backupNodes);
    v.seconds("fabric_coalesce_window_s", &T::fabricCoalesceWindow);
}

template <typename V>
void
fields(V &v, std::type_identity<train::ParallelismSpec>)
{
    using T = train::ParallelismSpec;
    v.field("tp", &T::tp);
    v.field("pp", &T::pp);
    v.field("dp", &T::dp);
    v.field("ep", &T::ep);
    v.field("gradient_accumulation", &T::gradientAccumulation);
    v.field("zero_stage", &T::zeroStage);
}

template <typename V>
void
fields(V &v, std::type_identity<JobSpec>)
{
    using T = JobSpec;
    v.field("id", &T::id);
    v.field("name", &T::name);
    v.field("model", &T::model);
    v.seconds("microbatch_compute_s", &T::microbatchCompute);
    v.field("parallel", &T::parallel);
    v.field("micro_batch", &T::microBatch);
    v.seconds("init_time_s", &T::initTime);
    v.field("dp_groups_simulated", &T::dpGroupsSimulated);
    v.field("checkpoint_interval_iters", &T::checkpointIntervalIters);
    v.seconds("checkpoint_cost_s", &T::checkpointCost);
    v.seconds("hang_watchdog_timeout_s", &T::hangWatchdogTimeout);
    v.field("nodes", &T::nodes);
    v.field("placement", &T::placement, kPlacements);
}

template <typename V>
void
fields(V &v, std::type_identity<AllreduceGroupSpec>)
{
    using T = AllreduceGroupSpec;
    v.field("tasks", &T::tasks);
    v.field("placement", &T::placement, kTaskPlacements);
    v.field("nodes_per_task", &T::nodesPerTask);
    v.field("explicit_nodes", &T::explicitNodes);
    v.field("bytes", &T::bytes);
    v.field("iterations", &T::iterations);
}

template <typename V>
void
fields(V &v, std::type_identity<LinkEventSpec>)
{
    using T = LinkEventSpec;
    v.seconds("at_s", &T::at);
    v.field("segment", &T::segment);
    v.field("plane", &T::plane, kPlanes);
    v.field("spine", &T::spine);
    v.field("up", &T::up);
}

template <typename V>
void
fields(V &v, std::type_identity<FaultSpec>)
{
    using T = FaultSpec;
    v.seconds("at_s", &T::at);
    v.field("type", &T::type, kFaultTypes);
    v.field("job", &T::job);
    v.field("job_node_index", &T::jobNodeIndex);
    v.field("node", &T::node);
    v.field("all_nics", &T::allNics);
    v.field("nic", &T::nic);
    v.field("severity", &T::severity);
}

template <typename V>
void
fields(V &v, std::type_identity<CampaignSpec>)
{
    using T = CampaignSpec;
    v.field("enabled", &T::enabled);
    v.field("rates", &T::rates, kCampaignRates);
    v.field("scale", &T::scale);
    v.seconds("span_s", &T::span);
}

template <typename V>
void
fields(V &v, std::type_identity<MetricsSpec>)
{
    using T = MetricsSpec;
    v.field("task_busbw", &T::taskBusBw);
    v.field("per_task", &T::perTask);
    v.seconds("split_at_s", &T::splitAt);
    v.field("job_throughput", &T::jobThroughput);
    v.field("job_comm_share", &T::jobCommShare);
    v.field("job_segments", &T::jobSegments);
    v.field("steering_counters", &T::steeringCounters);
    v.seconds("cnp_sample_period_s", &T::cnpSamplePeriod);
    v.field("cnp_nic", &T::cnpNic);
    v.seconds("uplink_sample_period_s", &T::uplinkSamplePeriod);
    v.field("uplink_segment", &T::uplinkSegment);
    v.field("uplink_plane", &T::uplinkPlane, kPlanes);
    v.field("detection", &T::detection);
    v.field("detection_kind", &T::detectionKind, kEventKinds);
}

/** A variant's keys between the always-written "variant" and the
 * trailing "custom" marker. */
template <typename V>
void
fields(V &v, std::type_identity<ScenarioSpec>)
{
    using T = ScenarioSpec;
    v.field("topology", &T::topology);
    v.field("features", &T::features);
    v.field("jobs", &T::jobs);
    v.field("allreduces", &T::allreduces);
    v.field("link_events", &T::linkEvents);
    v.field("faults", &T::faults);
    v.field("campaign", &T::campaign);
    v.field("metrics", &T::metrics);
    v.seconds("horizon_s", &T::horizon);
    v.seconds("abort_at_s", &T::abortAt);
    v.field("abort_trial", &T::abortTrial);
}

/** The document keys between the always-written "scenario" and
 * "seed". */
template <typename V>
void
fields(V &v, std::type_identity<SpecFile>)
{
    using T = SpecFile;
    v.field("title", &T::title);
    v.field("description", &T::description);
    v.field("notes", &T::notes);
    v.field("full_trials", &T::fullTrials);
    v.field("smoke_trials", &T::smokeTrials);
    v.field("trial_begin", &T::trialBegin);
    v.field("trial_count", &T::trialCount);
}

template <typename V>
void
fields(V &v, std::type_identity<SmokeSpec>)
{
    using T = SmokeSpec;
    v.field("variants", &T::variants);
    v.seconds("horizon_s", &T::horizon);
    v.field("iterations", &T::iterations);
}

template <typename V>
void
fields(V &v, std::type_identity<Claim>)
{
    using T = Claim;
    v.field("label", &T::label);
    v.field("metric", &T::metric);
    v.field("variant", &T::variant);
    v.field("baseline", &T::baseline);
    v.field("scale", &T::scale);
    v.field("paper", &T::paper);
    v.field("expect", &T::expect, kExpects);
}

/** The document keys after "variants". */
template <typename V>
void
trailingFields(V &v)
{
    v.field("smoke", &SpecFile::smoke);
    v.field("claims", &SpecFile::claims);
}

/** The structs with a field list above. */
template <typename T>
concept HasFields =
    requires(int &v) { fields(v, std::type_identity<T>{}); };

template <typename T>
constexpr bool kIsList = false;
template <typename E>
constexpr bool kIsList<std::vector<E>> = true;

template <typename T>
constexpr bool kIsStructList = false;
template <HasFields E>
constexpr bool kIsStructList<std::vector<E>> = true;

// --- reader -----------------------------------------------------------

template <typename T>
void bindFields(JsonBinder &b, T &out);

/** Binds one field list from the object under a binder. */
template <typename T>
class Reader
{
  public:
    Reader(JsonBinder &b, T &out) : b_(b), out_(out) {}

    template <typename F>
    void
    field(const char *key, F T::*m)
    {
        F &f = out_.*m;
        if constexpr (HasFields<F> || kIsStructList<F>) {
            const Json *v = b_.member(key);
            if (!v)
                return;
            const std::string path = b_.context() + "." + key;
            if constexpr (HasFields<F>) {
                JsonBinder nested(*v, path);
                bindFields(nested, f);
                nested.finish();
            } else {
                b_.eachObject(*v, key, path, [&f](JsonBinder &entry) {
                    bindFields(entry, f.emplace_back());
                });
            }
        } else {
            b_.get(key, f);
        }
    }

    void
    seconds(const char *key, Duration T::*m)
    {
        const Json *v = b_.member(key);
        if (!v)
            return;
        if (v->kind != Json::Kind::Int && v->kind != Json::Kind::Double) {
            b_.fail(*v, std::string("\"") + key +
                            "\" must be a number of seconds, not " +
                            Json::kindName(v->kind));
        }
        const std::string &token =
            v->raw.empty() ? std::to_string(v->integer) : v->raw;
        if (!secondsTokenToNanos(token, out_.*m)) {
            b_.fail(*v, std::string("\"") + key + "\" value '" + token +
                            "' does not fit an integer-nanosecond "
                            "duration");
        }
    }

    template <typename E, std::size_t N>
    void
    field(const char *key, E T::*m, const EnumName<E> (&names)[N])
    {
        const Json *v = b_.member(key);
        if (!v)
            return;
        b_.expect(*v, Json::Kind::String, key);
        for (const EnumName<E> &e : names) {
            if (v->string == e.name) {
                out_.*m = e.value;
                return;
            }
        }
        std::string allowed;
        for (const EnumName<E> &e : names) {
            if (!allowed.empty())
                allowed += ", ";
            allowed += std::string("\"") + e.name + "\"";
        }
        b_.fail(*v, std::string("\"") + key + "\" value \"" + v->string +
                        "\" is not one of " + allowed);
    }

  private:
    JsonBinder &b_;
    T &out_;
};

template <typename T>
void
bindFields(JsonBinder &b, T &out)
{
    Reader<T> reader(b, out);
    fields(reader, std::type_identity<T>{});
}

void
getSeed(JsonBinder &b, const char *key, std::uint64_t &out)
{
    const Json *v = b.member(key);
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
        if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
            base = 16;
            digits = 2;
        }
        bool wellFormed = s.size() > digits;
        for (std::size_t i = digits; i < s.size(); ++i) {
            const auto c = static_cast<unsigned char>(s[i]);
            if (!(base == 16 ? std::isxdigit(c) : std::isdigit(c))) {
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
    b.fail(*v, std::string("\"") + key +
                   "\" must be a non-negative integer or a "
                   "\"0x...\" string");
}

// --- writer -----------------------------------------------------------

Json jsonOf(bool v) { return Json::fromBool(v); }
Json jsonOf(int v) { return Json::fromInt(v); }
Json jsonOf(std::int64_t v) { return Json::fromInt(v); }
Json jsonOf(double v) { return Json::fromDouble(v); }
Json jsonOf(const std::string &v) { return Json::fromString(v); }

template <typename E>
Json jsonOf(const std::vector<E> &list);
template <HasFields T>
Json jsonOf(const T &value);

/** Seconds value carrying exact decimal text derived from @p ns. */
Json
jsonSeconds(Duration ns)
{
    const std::string text = secondsText(ns);
    if (text.find('.') == std::string::npos)
        return Json::fromInt(ns / 1000000000);
    Json v = Json::fromDouble(std::strtod(text.c_str(), nullptr));
    v.raw = text;
    return v;
}

Json
jsonSeed(std::uint64_t seed)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llX",
                  static_cast<unsigned long long>(seed));
    return Json::fromString(buf);
}

/** Adds one field list's members that differ from their defaults;
 * an empty list or nested object is left out. */
template <typename T>
class Writer
{
  public:
    Writer(const T &value, Json &out) : value_(value), out_(out) {}

    template <typename F>
    void
    field(const char *key, F T::*m)
    {
        const F &f = value_.*m;
        if constexpr (HasFields<F>) {
            Json o = jsonOf(f);
            if (!o.object.empty())
                out_.add(key, std::move(o));
        } else if constexpr (kIsList<F>) {
            if (!f.empty())
                out_.add(key, jsonOf(f));
        } else if (f != def_.*m) {
            out_.add(key, jsonOf(f));
        }
    }

    void
    seconds(const char *key, Duration T::*m)
    {
        if (value_.*m != def_.*m)
            out_.add(key, jsonSeconds(value_.*m));
    }

    template <typename E, std::size_t N>
    void
    field(const char *key, E T::*m, const EnumName<E> (&names)[N])
    {
        if (value_.*m != def_.*m)
            out_.add(key, Json::fromString(enumToName(names, value_.*m)));
    }

  private:
    const T &value_;
    const T def_{};
    Json &out_;
};

template <typename T>
void
addFields(Json &out, const T &value)
{
    Writer<T> writer(value, out);
    fields(writer, std::type_identity<T>{});
}

template <typename E>
Json
jsonOf(const std::vector<E> &list)
{
    Json a = Json::emptyArray();
    for (const E &e : list)
        a.array.push_back(jsonOf(e));
    return a;
}

template <HasFields T>
Json
jsonOf(const T &value)
{
    Json o = Json::emptyObject();
    addFields(o, value);
    return o;
}

/** @p variants as --smoke runs them under @p smoke. */
std::vector<ScenarioSpec>
smokeVariants(const std::vector<ScenarioSpec> &variants,
              const SmokeSpec &smoke)
{
    std::vector<ScenarioSpec> out;
    for (const ScenarioSpec &full : variants) {
        if (!smoke.variants.empty() &&
            std::find(smoke.variants.begin(), smoke.variants.end(),
                      full.variant) == smoke.variants.end()) {
            continue;
        }
        ScenarioSpec &spec = out.emplace_back(full);
        if (smoke.horizon > 0)
            spec.horizon = smoke.horizon;
        if (smoke.iterations > 0) {
            for (AllreduceGroupSpec &g : spec.allreduces)
                g.iterations = smoke.iterations;
        }
    }
    return out;
}

/** Index of the variant labelled @p label, or -1. */
int
variantIndex(const std::vector<ScenarioSpec> &variants,
             const std::string &label)
{
    for (std::size_t i = 0; i < variants.size(); ++i) {
        if (variants[i].variant == label)
            return static_cast<int>(i);
    }
    return -1;
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
    for (const Claim &c : scenario.claims) {
        if (variantIndex(file.variants, c.variant) >= 0 &&
            variantIndex(file.variants, c.baseline) >= 0) {
            file.claims.push_back(c);
        }
    }
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
    s.variants = [variants = file.variants,
                  smoke = file.smoke](const RunOptions &opt) {
        return opt.smoke ? smokeVariants(variants, smoke) : variants;
    };
    s.claims = file.claims;
    return s;
}

std::string
writeSpecFile(const SpecFile &file)
{
    Json doc = Json::emptyObject();
    doc.add("scenario", Json::fromString(file.name));
    addFields(doc, file);
    doc.add("seed", jsonSeed(file.seed));
    Json variants = Json::emptyArray();
    for (const ScenarioSpec &spec : file.variants) {
        Json o = Json::emptyObject();
        o.add("variant", Json::fromString(spec.variant));
        addFields(o, spec);
        if (spec.custom)
            o.add("custom", Json::fromBool(true));
        variants.array.push_back(std::move(o));
    }
    doc.add("variants", std::move(variants));
    Writer<SpecFile> trailing(file, doc);
    trailingFields(trailing);
    return writeJson(doc);
}

SpecFile
parseSpecFile(const std::string &text)
{
    const Json doc = parseJson(text);
    SpecFile file;
    JsonBinder b(doc, "the spec document");
    b.get("scenario", file.name);
    if (!validName(file.name)) {
        throw SpecError("\"scenario\" must name the scenario "
                        "([A-Za-z0-9_.-]+, required)",
                        doc.line, doc.column);
    }
    bindFields(b, file);
    getSeed(b, "seed", file.seed);
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
        JsonBinder vb(v, "variants[" + std::to_string(i) + "]");
        vb.get("variant", spec.variant);
        bindFields(vb, spec);
        bool custom = false;
        vb.get("custom", custom);
        if (custom) {
            // The built-in this was dumped from runs code, not data; a
            // reloaded copy can only hold the variant's declarative
            // shell.
            spec.custom = [](scenario::TrialContext &) {
                throw std::runtime_error(
                    "this variant was dumped from a scenario with a "
                    "custom (code-defined) executor; it cannot run from "
                    "a spec file");
            };
        }
        vb.finish();
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
    Reader<SpecFile> trailing(b, file);
    trailingFields(trailing);
    b.finish();
    if (const Json *smoke = b.member("smoke")) {
        // A subsequence, so smoke runs a subset of the full columns
        // in the same order.
        int last = -1;
        for (const std::string &label : file.smoke.variants) {
            const int i = variantIndex(file.variants, label);
            if (i < 0) {
                throw SpecError("smoke variant \"" + label +
                                    "\" is not in \"variants\"",
                                smoke->line, smoke->column);
            }
            if (i <= last) {
                throw SpecError("smoke variant \"" + label +
                                    "\" is out of order or repeated; "
                                    "list them as \"variants\" does",
                                smoke->line, smoke->column);
            }
            last = i;
        }
        if (file.smoke.horizon < 0 || file.smoke.iterations < 0) {
            throw SpecError("smoke horizon_s and iterations must not "
                            "be negative",
                            smoke->line, smoke->column);
        }
    }
    for (std::size_t i = 0; i < file.claims.size(); ++i) {
        const Claim &c = file.claims[i];
        const Json &at = b.member("claims")->array[i];
        if (c.label.empty() || c.metric.empty()) {
            throw SpecError("a claim needs a \"label\" and a "
                            "\"metric\"",
                            at.line, at.column);
        }
        for (const std::string *label : {&c.variant, &c.baseline}) {
            if (variantIndex(file.variants, *label) < 0) {
                throw SpecError("claim \"" + c.label +
                                    "\" names variant \"" + *label +
                                    "\", which is not in \"variants\"",
                                at.line, at.column);
            }
        }
        if (!(c.scale > 0.0)) {
            throw SpecError("claim \"" + c.label +
                                "\" needs a scale > 0",
                            at.line, at.column);
        }
    }
    return file;
}

SpecFile
loadSpecFile(const std::string &path)
{
    std::string text;
    try {
        text = readFile(path);
    } catch (const std::runtime_error &e) {
        throw SpecError(e.what(), 0, 0);
    }
    try {
        return parseSpecFile(text);
    } catch (const SpecError &e) {
        throw SpecError(path + ": " + e.what(), 0, 0);
    }
}

} // namespace c4::specio
