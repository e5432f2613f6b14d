#include "wire/frame.hpp"

#include <algorithm>
#include <cstring>

namespace gendpr::wire {

namespace {

void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

std::array<std::uint8_t, kFrameHeaderBytes> encode_frame_header(
    std::uint32_t from, std::size_t payload_size) {
  std::array<std::uint8_t, kFrameHeaderBytes> header{};
  store_u32(header.data(), static_cast<std::uint32_t>(payload_size + 4));
  store_u32(header.data() + 4, from);
  return header;
}

common::Bytes encode_frame(std::uint32_t from, common::BytesView payload) {
  common::Bytes frame(kFrameHeaderBytes + payload.size());
  const auto header = encode_frame_header(from, payload.size());
  std::memcpy(frame.data(), header.data(), kFrameHeaderBytes);
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return frame;
}

common::Bytes encode_hello(std::uint32_t from) {
  return encode_frame(from, {});
}

void FrameDecoder::feed(common::BytesView data) {
  // Callers normally drain to nullopt before feeding again, but never lose
  // stream bytes if they don't: stash whatever is left of the old chunk.
  if (!chunk_.empty()) {
    stash_.insert(stash_.end(), chunk_.begin(), chunk_.end());
  }
  chunk_ = data;
}

common::Result<std::optional<FrameDecoder::Frame>> FrameDecoder::next() {
  if (!stash_.empty()) {
    // Slow path: a frame straddles chunk boundaries. Top the stash up from
    // the current chunk — first to a full header, then to the full frame.
    if (stash_.size() < kFrameHeaderBytes) {
      const std::size_t take =
          std::min(kFrameHeaderBytes - stash_.size(), chunk_.size());
      stash_.insert(stash_.end(), chunk_.begin(), chunk_.begin() + take);
      chunk_ = chunk_.subspan(take);
      if (stash_.size() < kFrameHeaderBytes) return std::optional<Frame>{};
    }
    const std::uint32_t frame_len = load_u32(stash_.data());
    if (frame_len < 4 || frame_len - 4 > kMaxFramePayload) {
      return common::make_error(common::Errc::bad_message,
                                "malformed frame header");
    }
    const std::size_t payload_size = frame_len - 4;
    const std::size_t total = kFrameHeaderBytes + payload_size;
    if (stash_.size() < total) {
      const std::size_t take = std::min(total - stash_.size(), chunk_.size());
      stash_.insert(stash_.end(), chunk_.begin(), chunk_.begin() + take);
      chunk_ = chunk_.subspan(take);
      if (stash_.size() < total) return std::optional<Frame>{};
    }
    // Frame complete. feed() can stash more than one frame's worth, so keep
    // any excess for the next call.
    if (stash_.size() == total) {
      stash_frame_ = std::move(stash_);
      stash_.clear();
    } else {
      stash_frame_.assign(stash_.begin(),
                          stash_.begin() + static_cast<std::ptrdiff_t>(total));
      stash_.erase(stash_.begin(),
                   stash_.begin() + static_cast<std::ptrdiff_t>(total));
    }
    Frame frame;
    frame.from = load_u32(stash_frame_.data() + 4);
    frame.payload = common::BytesView(stash_frame_.data() + kFrameHeaderBytes,
                                      payload_size);
    return std::optional<Frame>{std::move(frame)};
  }

  // Fast path: parse directly out of the borrowed chunk, zero-copy.
  if (chunk_.size() < kFrameHeaderBytes) {
    if (!chunk_.empty()) {
      stash_.assign(chunk_.begin(), chunk_.end());
      chunk_ = {};
    }
    return std::optional<Frame>{};
  }
  const std::uint32_t frame_len = load_u32(chunk_.data());
  if (frame_len < 4 || frame_len - 4 > kMaxFramePayload) {
    return common::make_error(common::Errc::bad_message,
                              "malformed frame header");
  }
  const std::size_t payload_size = frame_len - 4;
  const std::size_t total = kFrameHeaderBytes + payload_size;
  if (chunk_.size() < total) {
    stash_.assign(chunk_.begin(), chunk_.end());
    chunk_ = {};
    return std::optional<Frame>{};
  }
  Frame frame;
  frame.from = load_u32(chunk_.data() + 4);
  frame.payload = chunk_.subspan(kFrameHeaderBytes, payload_size);
  chunk_ = chunk_.subspan(total);
  return std::optional<Frame>{std::move(frame)};
}

}  // namespace gendpr::wire
