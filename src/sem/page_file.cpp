#include "sem/page_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "data/matrix_io.hpp"

namespace knor::sem {

PageFile::PageFile(const std::string& path, std::size_t page_size,
                   SsdCostModel cost)
    : page_size_(page_size == 0 ? 4096 : page_size), cost_(cost) {
  // Validate via the shared header reader first (throws on bad files).
  const data::MatrixHeader header = data::read_header(path);
  n_ = header.n;
  d_ = header.d;
  row_bytes_ = static_cast<std::size_t>(d_) * header.elem_size;
  header_bytes_ = data::kHeaderBytes;
  file_bytes_ = header_bytes_ + static_cast<std::uint64_t>(n_) * row_bytes_;
  num_pages_ = (file_bytes_ + page_size_ - 1) / page_size_;

  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0)
    throw std::runtime_error("PageFile: cannot open '" + path + "'");
}

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t PageFile::read_pages(std::uint64_t first_page, std::uint32_t count,
                                 unsigned char* buf) {
  if (first_page >= num_pages_ || count == 0) return 0;
  const std::uint64_t offset = first_page * page_size_;
  const std::size_t want = static_cast<std::size_t>(count) * page_size_;

  std::size_t got = 0;
  while (got < want) {
    const ssize_t r = ::pread(fd_, buf + got, want - got,
                              static_cast<off_t>(offset + got));
    if (r < 0) throw std::runtime_error("PageFile: pread failed");
    if (r == 0) break;  // EOF
    got += static_cast<std::size_t>(r);
  }
  if (got < want) {
    // Only the final page's tail past the matrix's end is padding; an EOF
    // before it means the file shrank after it was opened.
    if (offset + got < file_bytes_)
      throw std::runtime_error("PageFile: short read at byte " +
                               std::to_string(offset + got) + " of " +
                               std::to_string(file_bytes_) +
                               ": the file shrank after it was opened");
    std::memset(buf + got, 0, want - got);
  }

  bytes_read_.fetch_add(got, std::memory_order_relaxed);
  read_requests_.fetch_add(1, std::memory_order_relaxed);

  if (cost_.enabled()) {
    // Emulate SSD service time: latency + size / bandwidth.
    double ns = 1e3 * cost_.latency_us;
    if (cost_.gigabytes_per_sec > 0)
      ns += static_cast<double>(got) / cost_.gigabytes_per_sec;
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(static_cast<std::int64_t>(ns));
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  return got;
}

}  // namespace knor::sem
