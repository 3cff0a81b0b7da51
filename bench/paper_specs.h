/**
 * @file
 * The paper scenarios defined as data: every committed
 * `specs/paper/<name>.json`, embedded into c4bench at build time and
 * registered through the same parser as a `--spec` file, so there is
 * no runtime search path.
 */

#ifndef C4_BENCH_PAPER_SPECS_H
#define C4_BENCH_PAPER_SPECS_H

#include <span>
#include <string_view>

namespace c4::bench {

/** One embedded spec file. */
struct PaperSpec
{
    std::string_view name; ///< file stem, which is its scenario name
    std::string_view text; ///< the file's bytes
};

/** Every spec file in `specs/paper/`, sorted by name. */
std::span<const PaperSpec> paperSpecs();

} // namespace c4::bench

#endif // C4_BENCH_PAPER_SPECS_H
