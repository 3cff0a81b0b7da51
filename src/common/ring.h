/**
 * @file
 * A bounded FIFO window over a growable ring buffer.
 */

#ifndef C4_COMMON_RING_H
#define C4_COMMON_RING_H

#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

namespace c4 {

/**
 * Keeps the newest `capacity` elements pushed, oldest first. Storage is
 * a list of small fixed blocks (~512 bytes, like std::deque's), added on
 * demand up to the capacity and kept across clear(). So a window that is
 * filled and drained over and over allocates nothing once it has reached
 * its working size — unlike std::deque, which allocates and frees a
 * block every few elements as it slides — and growing never copies the
 * elements or holds two buffers at once, as a doubling vector would.
 */
template <typename T>
class RingWindow
{
  public:
    explicit RingWindow(std::size_t capacity) : cap_(capacity)
    {
        assert(capacity > 0);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /**
     * Append @p v, dropping the oldest element when the window is full.
     * @return false when an element was dropped.
     */
    bool
    push(const T &v)
    {
        // head_ is nonzero only while the window is full (drops are the
        // only thing that advance it; clear() resets it), so below the
        // capacity the next position is simply size_.
        if (size_ < cap_) {
            if (size_ == blocks_.size() * kBlock)
                blocks_.push_back(std::make_unique<T[]>(kBlock));
            at(size_++) = v;
            return true;
        }
        at(head_) = v;
        head_ = (head_ + 1) % cap_;
        return false;
    }

    /** Element @p i, counting from the oldest. */
    const T &
    operator[](std::size_t i) const
    {
        assert(i < size_);
        return at((head_ + i) % cap_);
    }

    /** Forget every element; the storage is kept for reuse. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
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

    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;
        const_iterator(const RingWindow *ring, std::size_t i)
            : ring_(ring), i_(i)
        {
        }

        reference operator*() const { return (*ring_)[i_]; }
        pointer operator->() const { return &(*ring_)[i_]; }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++i_;
            return old;
        }

        bool operator==(const const_iterator &o) const { return i_ == o.i_; }

      private:
        const RingWindow *ring_ = nullptr;
        std::size_t i_ = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    static constexpr std::size_t kBlock =
        sizeof(T) < 512 ? 512 / sizeof(T) : 1;

    T &at(std::size_t pos) { return blocks_[pos / kBlock][pos % kBlock]; }
    const T &
    at(std::size_t pos) const
    {
        return blocks_[pos / kBlock][pos % kBlock];
    }

    std::vector<std::unique_ptr<T[]>> blocks_;
    std::size_t head_ = 0; ///< position of the oldest element
    std::size_t size_ = 0;
    std::size_t cap_;
};

} // namespace c4

#endif // C4_COMMON_RING_H
