#include "paper_specs.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "scenario/registry.h"
#include "specio/specio.h"

namespace c4::bench {

namespace {

// One {"<name>", R"c4spec(<file bytes>)c4spec"} entry per file,
// generated by cmake/embed_specs.cmake.
constexpr PaperSpec kPaperSpecs[] = {
#include "paper_specs.inc"
};

[[maybe_unused]] const bool registered = [] {
    for (const PaperSpec &spec : kPaperSpecs) {
        try {
            scenario::Registry::instance().add(specio::scenarioFromSpec(
                specio::parseSpecFile(std::string(spec.text))));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "specs/paper/%.*s.json: %s\n",
                         static_cast<int>(spec.name.size()),
                         spec.name.data(), e.what());
            std::abort();
        }
    }
    return true;
}();

} // namespace

std::span<const PaperSpec>
paperSpecs()
{
    return kPaperSpecs;
}

} // namespace c4::bench
