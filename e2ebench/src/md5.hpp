// MD5 (RFC 1321), used only to fingerprint benchmark outputs so that a
// reference digest recorded once can be compared on every operation.  Not a
// security primitive.
#ifndef ARCADE_E2E_MD5_HPP
#define ARCADE_E2E_MD5_HPP

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace e2e {

class Md5 {
public:
    void update(const void* data, std::size_t size) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        length_ += size;
        while (size > 0) {
            const std::size_t take = std::min(size, buffer_.size() - buffered_);
            std::memcpy(buffer_.data() + buffered_, bytes, take);
            buffered_ += take;
            bytes += take;
            size -= take;
            if (buffered_ == buffer_.size()) {
                block(buffer_.data());
                buffered_ = 0;
            }
        }
    }

    void update(std::string_view text) { update(text.data(), text.size()); }

    /// Lower-case hex digest; the object must not be updated afterwards.
    [[nodiscard]] std::string hex() {
        const std::uint64_t bits = length_ * 8;
        const unsigned char pad = 0x80;
        update(&pad, 1);
        const unsigned char zero = 0;
        while (buffered_ != 56) update(&zero, 1);
        unsigned char tail[8];
        for (int i = 0; i < 8; ++i) tail[i] = static_cast<unsigned char>(bits >> (8 * i));
        update(tail, 8);
        static constexpr char kHex[] = "0123456789abcdef";
        std::string out;
        for (const std::uint32_t word : state_) {
            for (int i = 0; i < 4; ++i) {
                const auto byte = static_cast<unsigned>((word >> (8 * i)) & 0xffU);
                out += kHex[byte >> 4];
                out += kHex[byte & 0xfU];
            }
        }
        return out;
    }

private:
    static std::uint32_t rotl(std::uint32_t x, unsigned c) { return (x << c) | (x >> (32 - c)); }

    void block(const unsigned char* p) {
        static constexpr std::uint32_t kShift[64] = {
            7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
            5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
            4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
            6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
        static constexpr std::uint32_t kSine[64] = {
            0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
            0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
            0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
            0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
            0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
            0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
            0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
            0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
            0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
            0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
            0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};
        std::uint32_t m[16];
        for (int i = 0; i < 16; ++i) {
            m[i] = static_cast<std::uint32_t>(p[4 * i]) |
                   (static_cast<std::uint32_t>(p[4 * i + 1]) << 8) |
                   (static_cast<std::uint32_t>(p[4 * i + 2]) << 16) |
                   (static_cast<std::uint32_t>(p[4 * i + 3]) << 24);
        }
        std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
        for (unsigned i = 0; i < 64; ++i) {
            std::uint32_t f = 0;
            unsigned g = 0;
            if (i < 16) {
                f = (b & c) | (~b & d);
                g = i;
            } else if (i < 32) {
                f = (d & b) | (~d & c);
                g = (5 * i + 1) % 16;
            } else if (i < 48) {
                f = b ^ c ^ d;
                g = (3 * i + 5) % 16;
            } else {
                f = c ^ (b | ~d);
                g = (7 * i) % 16;
            }
            const std::uint32_t next = d;
            d = c;
            c = b;
            b = b + rotl(a + f + kSine[i] + m[g], kShift[i]);
            a = next;
        }
        state_[0] += a;
        state_[1] += b;
        state_[2] += c;
        state_[3] += d;
    }

    std::array<std::uint32_t, 4> state_ = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};
    std::array<unsigned char, 64> buffer_{};
    std::size_t buffered_ = 0;
    std::uint64_t length_ = 0;
};

[[nodiscard]] inline std::string md5_hex(std::string_view text) {
    Md5 md5;
    md5.update(text);
    return md5.hex();
}

}  // namespace e2e

#endif  // ARCADE_E2E_MD5_HPP
