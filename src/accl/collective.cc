#include "accl/collective.h"

#include <cassert>

namespace c4::accl {

const char *
collOpName(CollOp op)
{
    switch (op) {
      case CollOp::AllReduce:     return "allreduce";
      case CollOp::AllGather:     return "allgather";
      case CollOp::ReduceScatter: return "reducescatter";
      case CollOp::Broadcast:     return "broadcast";
      case CollOp::AllToAll:      return "alltoall";
      case CollOp::SendRecv:      return "sendrecv";
    }
    return "?";
}

double
busFactor(CollOp op, int nranks)
{
    assert(nranks >= 1);
    const double n = static_cast<double>(nranks);
    switch (op) {
      case CollOp::AllReduce:
        return nranks == 1 ? 0.0 : 2.0 * (n - 1.0) / n;
      case CollOp::AllGather:
      case CollOp::ReduceScatter:
        return nranks == 1 ? 0.0 : (n - 1.0) / n;
      case CollOp::Broadcast:
        return nranks == 1 ? 0.0 : 1.0;
      case CollOp::AllToAll:
        return nranks == 1 ? 0.0 : (n - 1.0) / n;
      case CollOp::SendRecv:
        return 1.0;
    }
    return 0.0;
}

int
ringRounds(CollOp op, int nranks)
{
    assert(nranks >= 1);
    switch (op) {
      case CollOp::AllReduce:
        return nranks == 1 ? 0 : 2 * (nranks - 1);
      case CollOp::AllGather:
      case CollOp::ReduceScatter:
      case CollOp::Broadcast:
      case CollOp::AllToAll:
        return nranks == 1 ? 0 : nranks - 1;
      case CollOp::SendRecv:
        return 1;
    }
    return 0;
}

Bandwidth
algBandwidth(Bytes bytes, Duration elapsed)
{
    if (elapsed <= 0)
        return 0.0;
    return static_cast<double>(bytes) * 8.0 / toSeconds(elapsed);
}

Bandwidth
busBandwidth(CollOp op, int nranks, Bytes bytes, Duration elapsed)
{
    return algBandwidth(bytes, elapsed) * busFactor(op, nranks);
}

} // namespace c4::accl
