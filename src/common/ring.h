/**
 * @file
 * A bounded FIFO window over a growable ring buffer.
 *
 * Storage is a list of blocks added on demand. Block k holds
 * kBase << min(k, 5) elements, where kBase fills about 512 bytes: the
 * blocks double from ~512 B up to ~16 KiB and then stay that size, and
 * the last one is clamped so the storage never exceeds the capacity.
 * Doubling keeps the block count of a deep window small (8192 records
 * of 88 bytes fill 56 blocks, not the 1,639 of a fixed 512 B block),
 * which matters because windows are built again for every new
 * communicator and every new cluster. The cap bounds the slack: at most
 * one block (~16 KiB) is allocated beyond what the window holds.
 * Growing a doubling *vector* instead copied the elements and briefly
 * held two buffers; measured on the fig3 benchmark ladder it raised the
 * peak RSS by 4%. Capped doubling blocks do not raise it.
 */

#ifndef C4_COMMON_RING_H
#define C4_COMMON_RING_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

namespace c4 {

/**
 * Keeps the newest `capacity` elements pushed, oldest first. Blocks are
 * kept across clear(), so a window that is filled and drained over and
 * over allocates nothing once it has reached its working size — unlike
 * std::deque, which allocates and frees a block every few elements as
 * it slides — and growing never copies the elements.
 */
template <typename T>
class RingWindow
{
    struct Block
    {
        std::unique_ptr<T[]> data;
        std::size_t size = 0;
    };

  public:
    /** Elements in block 0; later blocks hold this << min(k, 5). */
    static constexpr std::size_t kBase =
        sizeof(T) < 512 ? 512 / sizeof(T) : 1;
    static constexpr std::size_t kDoublings = 5;

    explicit RingWindow(std::size_t capacity) : cap_(capacity)
    {
        assert(capacity > 0);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Blocks allocated so far. */
    std::size_t blocks() const { return blocks_.size(); }
    /** Elements the allocated blocks hold; never above the capacity. */
    std::size_t storage() const { return storage_; }

    /**
     * Append @p v, dropping the oldest element when the window is full.
     * @return false when an element was dropped.
     */
    bool
    push(const T &v)
    {
        // The write cursor is the next position: size_ below the
        // capacity, the oldest element's (head_) once full.
        if (wblk_ == blocks_.size())
            grow();
        blocks_[wblk_].data[woff_] = v;
        if (++woff_ == blocks_[wblk_].size) {
            woff_ = 0;
            if (++wblk_ == blocks_.size() && storage_ == cap_)
                wblk_ = 0;
        }
        if (size_ < cap_) {
            ++size_;
            return true;
        }
        head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
        return false;
    }

    /** Element @p i, counting from the oldest. */
    const T &
    operator[](std::size_t i) const
    {
        assert(i < size_);
        std::size_t pos = head_ + i;
        if (pos >= cap_)
            pos -= cap_;
        const std::size_t k = blockOf(pos);
        return blocks_[k].data[pos - blockStart(k)];
    }

    /** Forget every element; the storage is kept for reuse. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
        wblk_ = 0;
        woff_ = 0;
    }

    /** Copy the window, oldest first, into @p out (replacing its
     * contents, reusing its capacity), then clear(). */
    void
    drainTo(std::vector<T> &out)
    {
        out.clear();
        for (const T &v : *this)
            out.push_back(v);
        clear();
    }

    /** Walks the blocks in order, wrapping from the last to the first. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;
        const_iterator(const RingWindow *ring, std::size_t i,
                       std::size_t blk, std::size_t off)
            : ring_(ring), i_(i), blk_(blk), off_(off)
        {
        }

        reference
        operator*() const
        {
            return ring_->blocks_[blk_].data[off_];
        }

        pointer operator->() const { return &**this; }

        const_iterator &
        operator++()
        {
            ++i_;
            if (++off_ == ring_->blocks_[blk_].size) {
                off_ = 0;
                if (++blk_ == ring_->blocks_.size())
                    blk_ = 0;
            }
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++*this;
            return old;
        }

        bool operator==(const const_iterator &o) const { return i_ == o.i_; }

      private:
        const RingWindow *ring_ = nullptr;
        std::size_t i_ = 0; ///< elements from the oldest
        std::size_t blk_ = 0;
        std::size_t off_ = 0;
    };

    /** The oldest element: position 0 until the window is full, then
     * the write cursor (the next push overwrites it). */
    const_iterator
    begin() const
    {
        return size_ < cap_ ? const_iterator(this, 0, 0, 0)
                            : const_iterator(this, 0, wblk_, woff_);
    }
    const_iterator end() const { return {this, size_, 0, 0}; }

  private:
    /** Blocks 0..kDoublings-1 hold this many kBase units in all. */
    static constexpr std::size_t kDoubled =
        (std::size_t{1} << kDoublings) - 1;

    /** First position of block @p k. */
    static std::size_t
    blockStart(std::size_t k)
    {
        return k <= kDoublings
                   ? kBase * ((std::size_t{1} << k) - 1)
                   : kBase * (kDoubled + ((k - kDoublings) << kDoublings));
    }

    /** Block holding position @p pos. */
    static std::size_t
    blockOf(std::size_t pos)
    {
        const std::size_t q = pos / kBase;
        if (q < kDoubled)
            return static_cast<std::size_t>(std::bit_width(q + 1)) - 1;
        return kDoublings + ((q - kDoubled) >> kDoublings);
    }

    void
    grow()
    {
        const std::size_t k = blocks_.size();
        const std::size_t n = std::min(kBase << std::min(k, kDoublings),
                                       cap_ - storage_);
        blocks_.push_back({std::make_unique<T[]>(n), n});
        storage_ += n;
    }

    std::vector<Block> blocks_;
    std::size_t storage_ = 0; ///< sum of the block sizes
    std::size_t wblk_ = 0;    ///< write cursor: block ...
    std::size_t woff_ = 0;    ///< ... and offset in it
    std::size_t head_ = 0;    ///< position of the oldest element
    std::size_t size_ = 0;
    std::size_t cap_;
};

} // namespace c4

#endif // C4_COMMON_RING_H
