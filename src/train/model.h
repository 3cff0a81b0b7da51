/**
 * @file
 * Analytic LLM model descriptions.
 *
 * The reproduction does not execute models; it needs only the quantities
 * that determine iteration timing: gradient volume (data-parallel
 * allreduce payload), activation volume (pipeline sends), tensor-parallel
 * collective volume, and per-GPU compute time. Presets cover the models
 * the paper evaluates (GPT-22B, Llama-7B/13B, GPT-175B).
 */

#ifndef C4_TRAIN_MODEL_H
#define C4_TRAIN_MODEL_H

#include <cstdint>
#include <string>

#include "common/types.h"

namespace c4::train {

/** Bytes per gradient element (fp16/bf16 training). */
inline constexpr int kGradientElementBytes = 2;

/** Static properties of a model being trained. */
struct ModelConfig
{
    std::string name = "model";

    /** Parameter count. */
    double params = 0.0;

    /**
     * Per-GPU compute time for one microbatch at TP=1 (scaled by the
     * job's parallelism at runtime). Derived from 6*params flops per
     * sample against an effective-throughput GPU model, but kept as a
     * plain duration so benches can calibrate.
     */
    Duration microbatchCompute = 0;

    /** Activation payload of one pipeline-stage boundary send. */
    Bytes activationBytes = 0;

    /** Tensor-parallel collective payload per microbatch (aggregate). */
    Bytes tpBytesPerMicrobatch = 0;

    /**
     * Expert-parallel alltoall payload per microbatch per direction
     * (MoE token dispatch/combine); 0 for dense models.
     */
    Bytes epBytesPerMicrobatch = 0;

    /** Full-model gradient volume in bytes. */
    Bytes
    gradientBytes() const
    {
        return static_cast<Bytes>(params) * kGradientElementBytes;
    }
};

/** @name Paper workload presets (Table II) @{ */
ModelConfig gpt22b();
ModelConfig gpt175b();
ModelConfig llama7b();
ModelConfig llama13b();
/** @} */

/**
 * Effective per-GPU compute duration for a microbatch given the model and
 * the tensor/pipeline split (compute shrinks with TP and PP).
 */
Duration microbatchComputeTime(const ModelConfig &model, int tp, int pp);

} // namespace c4::train

#endif // C4_TRAIN_MODEL_H
