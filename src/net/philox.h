/**
 * @file
 * Philox4x32-10 counter-based random numbers (Salmon, Moraes, Dror,
 * Shaw, "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
 *
 * A draw is a pure function of (key, counter): there is no stream
 * state, so the fabric's DCQCN overlay can key each flow's draws by
 * (fabric seed, flow id, per-flow draw count) and visit flows in any
 * order — or only the dirty component — without perturbing any other
 * flow's numbers.
 */

#ifndef C4_NET_PHILOX_H
#define C4_NET_PHILOX_H

#include <array>
#include <cstdint>

namespace c4::net {

using PhiloxBlock = std::array<std::uint32_t, 4>;
using PhiloxKey = std::array<std::uint32_t, 2>;

/** One Philox4x32 block with 10 rounds (the Random123 default). */
constexpr PhiloxBlock
philox4x32(PhiloxBlock ctr, PhiloxKey key)
{
    for (int round = 0; round < 10; ++round) {
        if (round > 0) {
            key[0] += 0x9E3779B9u;
            key[1] += 0xBB67AE85u;
        }
        const std::uint64_t p0 =
            static_cast<std::uint64_t>(0xD2511F53u) * ctr[0];
        const std::uint64_t p1 =
            static_cast<std::uint64_t>(0xCD9E8D57u) * ctr[2];
        ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
               static_cast<std::uint32_t>(p1),
               static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
               static_cast<std::uint32_t>(p0)};
    }
    return ctr;
}

/** Two uniforms in [0, 1), 53 bits each, from one block. */
struct UniformPair
{
    double first = 0.0;
    double second = 0.0;
};

/** Uniforms for draw number @p counter of stream @p stream under
 * @p seed. */
constexpr UniformPair
philoxUniforms(std::uint64_t seed, std::uint64_t stream,
               std::uint64_t counter)
{
    const PhiloxBlock out = philox4x32(
        {static_cast<std::uint32_t>(counter),
         static_cast<std::uint32_t>(counter >> 32),
         static_cast<std::uint32_t>(stream),
         static_cast<std::uint32_t>(stream >> 32)},
        {static_cast<std::uint32_t>(seed),
         static_cast<std::uint32_t>(seed >> 32)});
    auto unit = [](std::uint32_t hi, std::uint32_t lo) {
        const std::uint64_t bits =
            (static_cast<std::uint64_t>(hi) << 32 | lo) >> 11;
        return static_cast<double>(bits) * 0x1.0p-53;
    };
    return {unit(out[0], out[1]), unit(out[2], out[3])};
}

} // namespace c4::net

#endif // C4_NET_PHILOX_H
