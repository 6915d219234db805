/**
 * @file
 * 2-D convolution layer.
 *
 * This is the layer SnaPEA transforms: each output channel ("kernel"
 * in the paper's terminology) owns Cin/groups x Kh x Kw weights that
 * the SnaPEA passes reorder, and whose per-window dot products the
 * accelerator terminates early.  The layer therefore exposes flat
 * per-kernel weight access in addition to plain forward().
 */

#ifndef SNAPEA_NN_CONV_HH
#define SNAPEA_NN_CONV_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hh"
#include "nn/tensor.hh"
#include "util/check.hh"

namespace snapea {

/** Static configuration of a convolution layer. */
struct ConvSpec
{
    int in_channels = 0;    ///< Input channel count (C_in).
    int out_channels = 0;   ///< Output channel / kernel count (C_out).
    int kernel = 1;         ///< Square kernel width D_k.
    int stride = 1;         ///< Stride in both dimensions.
    int pad = 0;            ///< Zero padding on each border.
    int groups = 1;         ///< Grouped convolution (AlexNet uses 2).
};

/**
 * A conv input copied once into a zero-padded, channel-major buffer,
 * and the spans in which a conv layer walks it.  In the padded
 * geometry every window is interior: each tap of every window is one
 * flat offset from the window's origin, as the index buffer gives it
 * to the paper's PEs (Section V), and one row-kernel call covers a
 * span of windows at the layer's stride:
 *
 *  - a stride-1 layer walks each output plane as one span of
 *    (oh-1)*iwp + ow windows, output (y, x) at y*iwp + x; the k-1
 *    windows that wrap around the end of each padded row are
 *    computed and dropped;
 *  - a strided layer walks one span of ow windows per output row.
 *
 * Spans round up to the lane count so the last tile runs full-width;
 * those extra windows read the buffer's zero slack, exactly
 * (n - span) * stride floats, and are dropped too.  A padding tap
 * reads 0.0f.  The dense convolution (Conv2D) and every mode of the
 * SnaPEA engine walk this one layout.
 */
struct PaddedWalk
{
    const float *in = nullptr;  ///< Padded input, channel-major.
    size_t size = 0;            ///< Floats in the buffer, slack included.
    size_t plane = 0;           ///< Floats per padded channel plane.
    int oh = 0, ow = 0, stride = 1;
    int iwp = 0;                ///< Padded row width.
    int rows = 1;               ///< Output rows per span.
    int n = 0;                  ///< Windows walked per span.
    int32_t max_off = 0;        ///< Offset of the last channel's last
                                ///< tap from a window's origin.
    bool nonneg = true;         ///< Every input value is >= 0.

    /** Offset of output window (y, x)'s origin within a plane. */
    size_t origin(int y, int x) const
    {
        return (static_cast<size_t>(y) * iwp + x) * stride;
    }

    /**
     * Walk each span with @p walk(first), where @p first is the
     * offset of the span's first window origin, then hand its output
     * rows to @p row(y, i0), where result i0 + x is output (y, x).
     */
    template <class Walk, class Row>
    void forEachSpan(Walk &&walk, Row &&row) const
    {
        for (int y0 = 0; y0 < oh; y0 += rows) {
            const size_t first = origin(y0, 0);
            SNAPEA_DCHECK(first + static_cast<size_t>(n - 1) * stride
                              + static_cast<size_t>(max_off)
                          < size);
            walk(first);
            for (int r = 0; r < rows; ++r)
                row(y0 + r, static_cast<size_t>(r) * iwp);
        }
    }
};

/**
 * Copy @p in into the calling thread's zero-padded buffer for a conv
 * layer of @p spec and lay out its spans for the active kernel set's
 * lane count.  The copy also records whether every input value is
 * >= 0 (a NaN is not), the input half of the walk's block-check
 * precondition (kernels.hh, WalkRowFn).
 *
 * The buffer belongs to the calling thread and stays valid until
 * that thread's next padInput call, so one conv call may read it
 * from every pool worker it dispatches.
 */
PaddedWalk padInput(const Tensor &in, const ConvSpec &spec);

/**
 * 2-D convolution with square kernels, symmetric padding, and
 * optional channel groups.  Weights are OIHW, bias per output
 * channel.
 */
class Conv2D : public Layer
{
  public:
    /**
     * @param name Layer name.
     * @param spec Static configuration; validated on construction.
     */
    Conv2D(std::string name, const ConvSpec &spec);

    /** Static configuration. */
    const ConvSpec &spec() const { return spec_; }

    /** Weights, OIHW, shape [C_out, C_in/groups, D_k, D_k]. */
    Tensor &weights() { return weights_; }
    const Tensor &weights() const { return weights_; }

    /** Bias, one entry per output channel. */
    std::vector<float> &bias() { return bias_; }
    const std::vector<float> &bias() const { return bias_; }

    /** Number of weights in one kernel: C_in/groups * D_k * D_k. */
    int kernelSize() const;

    /**
     * Weight of kernel @p out_ch at flat kernel index @p idx, where
     * the flat order is (in_channel, ky, kx) row-major.
     */
    float weightAt(int out_ch, int idx) const;

    /** Mutable variant of weightAt (used by tests and generators). */
    void setWeightAt(int out_ch, int idx, float v);

    /**
     * Decompose a flat kernel index into (in_channel_within_group,
     * ky, kx).
     */
    void decodeIndex(int idx, int &ic, int &ky, int &kx) const;

    /** MAC count of a full (unterminated) forward pass. */
    size_t macCount(const std::vector<int> &in_shape) const;

    Tensor forward(const std::vector<const Tensor *> &inputs) const override;

    /**
     * forward() into a caller-owned, correctly shaped output tensor.
     * The input is copied once into the zero-padded layout
     * (padInput) and walked by forwardPadded().
     *
     * Each output is bias + sum of w * x over the window's taps in
     * (in_channel, ky, kx) order, with separate mul and add, and a
     * padding tap adds w * 0.0f.  That equals skipping the tap, as a
     * bounds-checked loop would, except in two cases:
     *
     *  - (a) a non-finite weight on a padding tap makes the window
     *    NaN (inf * 0), as it does in every SnaPEA engine mode;
     *  - (b) an accumulator at exactly -0.0 becomes +0.0 when a
     *    padding tap with a non-negative weight adds +0.0.  That
     *    needs a -0.0 bias and every earlier product -0.0.  Weight
     *    calibration can set a -0.0 bias (weight_init.cc,
     *    b = -q * scale with q = 0).  The difference shows only
     *    before ReLU, which maps both zeros to +0.0.
     *
     * The result is bitwise identical on every kernel ISA and for
     * any thread count.
     */
    void forwardInto(const Tensor &in, Tensor &out) const;

    /**
     * forwardInto() over an input this thread already padded with
     * padInput(in, spec()).  The SnaPEA engine's Fast mode pads once
     * and hands the copy both to this dense walk and to its prefix
     * squash.
     */
    void forwardPadded(const PaddedWalk &pw, Tensor &out) const;

    std::vector<int>
    outputShape(const std::vector<std::vector<int>> &in_shapes) const override;

    /** Output spatial size for one dimension of length n. */
    int outDim(int n) const;

  private:
    ConvSpec spec_;
    Tensor weights_;
    std::vector<float> bias_;
};

} // namespace snapea

#endif // SNAPEA_NN_CONV_HH
