/**
 * @file
 * Collective-operation vocabulary and bandwidth accounting.
 *
 * Bus-bandwidth bookkeeping follows nccl-tests: for an operation moving S
 * bytes per rank in time T, algbw = S*8/T and busbw = algbw * busFactor,
 * where busFactor depends on the operation and rank count (2(n-1)/n for
 * allreduce). The paper reports busbw throughout its C4P evaluation.
 */

#ifndef C4_ACCL_COLLECTIVE_H
#define C4_ACCL_COLLECTIVE_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace c4::accl {

/** Collective operations supported by the simulated library. */
enum class CollOp : std::int8_t {
    AllReduce,
    AllGather,
    ReduceScatter,
    Broadcast,
    AllToAll, ///< expert-parallel token shuffles (MoE dispatch/combine)
    SendRecv, ///< point-to-point (pipeline parallelism stages)
};

const char *collOpName(CollOp op);

/**
 * Traffic each rank must move through its slowest serial resource,
 * as a multiple of the payload size S (the nccl-tests "bus factor").
 */
double busFactor(CollOp op, int nranks);

/**
 * Number of ring rounds the operation takes with one chunk in flight
 * (allreduce: 2(n-1); gather/scatter: n-1; sendrecv: 1).
 */
int ringRounds(CollOp op, int nranks);

/** Convert an operation duration to algorithm bandwidth in bits/s. */
Bandwidth algBandwidth(Bytes bytes, Duration elapsed);

/** Convert an operation duration to bus bandwidth in bits/s. */
Bandwidth busBandwidth(CollOp op, int nranks, Bytes bytes,
                       Duration elapsed);

/** Identifier of one collective operation instance on a communicator. */
using CollSeq = std::uint64_t;

/**
 * Progress of one collective operation, tracked from posting through
 * start (all ranks entered) to completion. The paper's C4D relies on
 * exactly this: "we track the startup and completion of specific
 * collective operations and assign each operation a sequence".
 */
struct OpProgress
{
    CommId comm = kInvalidId;
    CollSeq seq = 0;
    CollOp op = CollOp::AllReduce;
    Bytes bytes = 0;
    Time postTime = kTimeNever;
    Time startTime = kTimeNever;
    Time endTime = kTimeNever;

    bool posted() const { return postTime != kTimeNever; }
    bool started() const { return startTime != kTimeNever; }
    bool finished() const { return endTime != kTimeNever; }
};

} // namespace c4::accl

#endif // C4_ACCL_COLLECTIVE_H
