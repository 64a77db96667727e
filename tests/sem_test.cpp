// Unit and integration tests for the SEM substrate: page file geometry,
// page cache eviction, I/O engine request merging and prefetch, row cache
// laziness, and knors end-to-end equivalence with knori.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include "core/knori.hpp"
#include "data/generator.hpp"
#include "data/matrix_io.hpp"
#include "sem/io_engine.hpp"
#include "sem/page_cache.hpp"
#include "sem/page_file.hpp"
#include "sem/row_cache.hpp"
#include "sem/sem_kmeans.hpp"

namespace knor::sem {
namespace {

class SemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("knor_sem_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string make_matrix(const data::GeneratorSpec& spec,
                          const std::string& name = "m.kmat") {
    const std::string p = dir_ / name;
    data::write_generated(p, spec);
    return p;
  }
  std::filesystem::path dir_;
};

TEST_F(SemTest, PageFileGeometry) {
  data::GeneratorSpec spec;
  spec.n = 100;
  spec.d = 8;  // 64B rows
  const std::string p = make_matrix(spec);
  PageFile file(p, 256);
  EXPECT_EQ(file.n(), 100u);
  EXPECT_EQ(file.d(), 8u);
  EXPECT_EQ(file.row_bytes(), 64u);
  // Header is 64B; row 0 at byte 64 -> page 0; row 3 at 64+192=256 -> page 1.
  EXPECT_EQ(file.first_page_of_row(0), 0u);
  EXPECT_EQ(file.first_page_of_row(3), 1u);
  EXPECT_EQ(file.last_page_of_row(3), 1u);
  const std::uint64_t file_bytes = 64 + 100 * 64;
  EXPECT_EQ(file.num_pages(), (file_bytes + 255) / 256);
}

TEST_F(SemTest, PageFileReadMatchesData) {
  data::GeneratorSpec spec;
  spec.n = 64;
  spec.d = 4;
  const std::string p = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(p, 4096);
  std::vector<unsigned char> buf(4096);
  file.read_pages(0, 1, buf.data());
  // Row 0 lives at offset 64 within page 0.
  value_t row0[4];
  std::memcpy(row0, buf.data() + 64, sizeof(row0));
  for (int j = 0; j < 4; ++j) EXPECT_EQ(row0[j], m.at(0, j));
  EXPECT_GT(file.bytes_read(), 0u);
  EXPECT_EQ(file.read_requests(), 1u);
}

TEST_F(SemTest, PageFileEofZeroPadded) {
  data::GeneratorSpec spec;
  spec.n = 2;
  spec.d = 2;
  const std::string p = make_matrix(spec);
  PageFile file(p, 4096);
  std::vector<unsigned char> buf(2 * 4096, 0xff);
  file.read_pages(0, 2, buf.data());  // file is only 96 bytes
  EXPECT_EQ(buf[200], 0);             // past EOF must be zeroed
}

TEST_F(SemTest, PageFileRejectsGarbage) {
  const std::string p = dir_ / "bad.kmat";
  std::FILE* f = std::fopen(p.c_str(), "wb");
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_THROW(PageFile(p, 4096), std::runtime_error);
}

TEST(PageCacheTest, InsertCopyOutRoundTrip) {
  PageCache cache(64 * 1024, 1024, 2);
  std::vector<unsigned char> page(1024);
  for (std::size_t i = 0; i < page.size(); ++i)
    page[i] = static_cast<unsigned char>(i * 7);
  cache.insert(42, page.data());
  // Two ranges of one page, copied under one probe; bytes outside them
  // stay untouched.
  std::vector<unsigned char> out(64, 0xee);
  const PageCache::Range ranges[] = {{500, 8, out.data()},
                                     {1000, 24, out.data() + 16}};
  EXPECT_TRUE(cache.copy_out(42, ranges, 2));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], page[500 + i]);
  for (std::size_t i = 8; i < 16; ++i) EXPECT_EQ(out[i], 0xee);
  for (std::size_t i = 0; i < 24; ++i) EXPECT_EQ(out[16 + i], page[1000 + i]);
  EXPECT_EQ(out[40], 0xee);
  // A miss copies nothing.
  std::vector<unsigned char> untouched(8, 0xee);
  const PageCache::Range miss[] = {{0, 8, untouched.data()}};
  EXPECT_FALSE(cache.copy_out(43, miss, 1));
  EXPECT_EQ(untouched, std::vector<unsigned char>(8, 0xee));
}

TEST(PageCacheTest, EvictsWhenFullButKeepsCapacityPages) {
  PageCache cache(8 * 1024, 1024, 1);  // 8 slots
  std::vector<unsigned char> page(1024);
  for (std::uint64_t id = 0; id < 32; ++id) {
    page[0] = static_cast<unsigned char>(id);
    cache.insert(id, page.data());
  }
  int resident = 0;
  for (std::uint64_t id = 0; id < 32; ++id)
    if (cache.contains(id)) ++resident;
  EXPECT_EQ(resident, 8);
  // Recently inserted pages survive.
  EXPECT_TRUE(cache.contains(31));
}

TEST(PageCacheTest, ClockSecondChanceEvictionOrder) {
  PageCache cache(4 * 1024, 1024, 1);  // 4 slots
  std::vector<unsigned char> page(1024);
  for (std::uint64_t id = 0; id < 4; ++id) cache.insert(id, page.data());
  // All four pages are referenced; the first insertion beyond capacity
  // sweeps the full clock (granting every page its second chance, clearing
  // the bits) and evicts slot 0; the next insertion evicts slot 1.
  cache.insert(100, page.data());
  cache.insert(101, page.data());
  EXPECT_TRUE(cache.contains(100));
  EXPECT_TRUE(cache.contains(101));
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(PageCacheTest, ClockSparesReferencedPageDuringSweep) {
  PageCache cache(4 * 1024, 1024, 1);  // 4 slots
  std::vector<unsigned char> page(1024);
  unsigned char out = 0;
  const PageCache::Range one_byte[] = {{0, 1, &out}};
  for (std::uint64_t id = 0; id < 4; ++id) cache.insert(id, page.data());
  cache.insert(100, page.data());  // full sweep, evicts slot 0
  // Page 1 sits in slot 1 with its bit cleared; reading it re-arms the bit
  // so the next insertion skips it and evicts page 2 instead.
  EXPECT_TRUE(cache.copy_out(1, one_byte, 1));
  cache.insert(101, page.data());
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(PageCacheTest, ClearEmptiesEverything) {
  PageCache cache(8 * 1024, 1024, 2);
  std::vector<unsigned char> page(1024);
  cache.insert(1, page.data());
  cache.clear();
  EXPECT_FALSE(cache.contains(1));
}

TEST_F(SemTest, IoEngineFetchesCorrectRows) {
  data::GeneratorSpec spec;
  spec.n = 500;
  spec.d = 6;
  const std::string p = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(p, 512);
  PageCache cache(16 * 1024, 512, 2);
  IoEngine engine(file, cache, 1);
  std::vector<index_t> rows = {3, 77, 210, 211, 499};
  DenseMatrix out(5, 6);
  engine.fetch_rows(rows, out.data());
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (index_t j = 0; j < 6; ++j)
      EXPECT_EQ(out.at(static_cast<index_t>(i), j), m.at(rows[i], j));
  EXPECT_EQ(engine.bytes_requested(), 5u * 6 * sizeof(value_t));
}

TEST_F(SemTest, IoEngineMergesAdjacentPages) {
  data::GeneratorSpec spec;
  spec.n = 1000;
  spec.d = 8;  // 64B rows, 64 rows/4KB page
  const std::string p = make_matrix(spec);
  PageFile file(p, 4096);
  PageCache cache(1 << 20, 4096, 2);
  IoEngine engine(file, cache, 1);
  // 200 consecutive rows span ~4 pages -> a single merged extent read.
  std::vector<index_t> rows(200);
  std::iota(rows.begin(), rows.end(), 100);
  DenseMatrix out(200, 8);
  engine.fetch_rows(rows, out.data());
  EXPECT_EQ(file.read_requests(), 1u);
}

TEST_F(SemTest, IoEngineServesRepeatsFromPageCache) {
  data::GeneratorSpec spec;
  spec.n = 300;
  spec.d = 8;
  const std::string p = make_matrix(spec);
  PageFile file(p, 4096);
  PageCache cache(1 << 20, 4096, 2);
  IoEngine engine(file, cache, 1);
  std::vector<index_t> rows = {10, 20, 30};
  DenseMatrix out(3, 8);
  engine.fetch_rows(rows, out.data());
  const std::uint64_t reads_after_first = file.bytes_read();
  engine.fetch_rows(rows, out.data());
  EXPECT_EQ(file.bytes_read(), reads_after_first);  // all cache hits
}

TEST_F(SemTest, IoEnginePrefetchStagesPages) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 8;
  const std::string p = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(p, 4096);
  PageCache cache(1 << 20, 4096, 2);
  IoEngine engine(file, cache, 2);
  std::vector<index_t> rows;
  for (index_t r = 0; r < 2000; r += 10) rows.push_back(r);
  auto ticket = engine.prefetch(rows);
  ticket.wait();
  const std::uint64_t staged = file.bytes_read();
  EXPECT_GT(staged, 0u);
  DenseMatrix out(static_cast<index_t>(rows.size()), 8);
  engine.fetch_rows(rows, out.data());
  EXPECT_EQ(file.bytes_read(), staged);  // fetch was served by the cache
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(out.at(static_cast<index_t>(i), 0), m.at(rows[i], 0));
}

// --- fetch path properties ---------------------------------------------------

// (row, page) pieces of `rows`: the unit the page tallies count.
std::uint64_t row_page_pieces(const PageFile& file,
                              const std::vector<index_t>& rows) {
  std::uint64_t pieces = 0;
  for (const index_t r : rows)
    pieces += file.last_page_of_row(r) - file.first_page_of_row(r) + 1;
  return pieces;
}

// A random row set: a sparse sample, a dense window, a contiguous run (the
// energy pass's pattern) — all ascending, as the engine passes them — or,
// rarely, a shuffled sample.
std::vector<index_t> random_rows(std::mt19937_64& rng, index_t n) {
  std::vector<index_t> rows;
  const index_t window = 1 + static_cast<index_t>(rng() % n);
  const index_t begin = static_cast<index_t>(rng() % (n - window + 1));
  const std::uint64_t mode = rng() % 8;
  if (mode < 3 || mode == 7) {  // sparse: at most 64 rows anywhere
    for (std::uint64_t i = 1 + rng() % 64; i > 0; --i)
      rows.push_back(static_cast<index_t>(rng() % n));
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    if (mode == 7) std::shuffle(rows.begin(), rows.end(), rng);
  } else if (mode < 6) {  // dense: about half of a window
    for (index_t r = begin; r < begin + window; ++r)
      if (rng() % 2 == 0) rows.push_back(r);
    if (rows.empty()) rows.push_back(begin);
  } else {  // contiguous
    for (index_t r = begin; r < begin + window; ++r) rows.push_back(r);
  }
  return rows;
}

using FetchParam = std::tuple<index_t /*d*/, std::size_t /*slots/partition*/,
                              bool /*concurrent prefetch*/>;

class FetchPath : public SemTest,
                  public ::testing::WithParamInterface<FetchParam> {};

// fetch_rows must return exactly the .kmat's rows for any row set: rows
// far smaller than a page (d=1: a dense page holds more separate ranges
// than one probe gathers), rows straddling pages (d=7: 56-byte rows), rows
// wider than a page (d=600: 4800 bytes); a cache of one slot per partition
// (copies race eviction and take the re-read fallback) up to a roomy one;
// and an I/O thread staging overlapping sets while two workers fetch.
TEST_P(FetchPath, MatchesReadMatrix) {
  const auto [d, slots, concurrent] = GetParam();
  constexpr std::size_t kPage = 4096;
  constexpr int kPartitions = 2;
  data::GeneratorSpec spec;
  spec.d = d;
  spec.n = d == 600 ? 200 : 3000;
  spec.seed = 11;
  const std::string path = make_matrix(spec);
  const DenseMatrix ref = data::read_matrix(path);
  const std::size_t row_bytes = d * sizeof(value_t);

  PageFile file(path, kPage);
  PageCache cache(slots * kPartitions * kPage, kPage, kPartitions);
  IoEngine engine(file, cache, 1);

  const int fetchers = concurrent ? 2 : 1;
  std::vector<std::size_t> bad(static_cast<std::size_t>(fetchers), 0);
  const auto run = [&](int id) {
    std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(id));
    for (int round = 0; round < 150; ++round) {
      const std::vector<index_t> rows = random_rows(rng, spec.n);
      IoEngine::Ticket ticket;
      if (concurrent) {
        // Overlapping set: the same rows shifted by a few.
        std::vector<index_t> other;
        const index_t shift = static_cast<index_t>(rng() % 8);
        for (const index_t r : rows)
          if (r + shift < spec.n) other.push_back(r + shift);
        ticket = engine.prefetch(std::move(other));
      }
      DenseMatrix out(static_cast<index_t>(rows.size()), d);
      engine.fetch_rows(rows, out.data());
      ticket.wait();
      for (std::size_t i = 0; i < rows.size(); ++i)
        if (std::memcmp(out.row(static_cast<index_t>(i)), ref.row(rows[i]),
                        row_bytes) != 0)
          ++bad[static_cast<std::size_t>(id)];
    }
  };
  std::vector<std::thread> threads;
  for (int id = 1; id < fetchers; ++id) threads.emplace_back(run, id);
  run(0);
  for (auto& t : threads) t.join();

  for (int id = 0; id < fetchers; ++id)
    EXPECT_EQ(bad[static_cast<std::size_t>(id)], 0u) << "fetcher " << id;
  if (slots == 1) {
    EXPECT_GT(engine.page_misses(), 0u);  // the fallback ran
  }
  if (slots >= 1024 && !concurrent) {
    EXPECT_EQ(engine.page_misses(), 0u);  // nothing is ever evicted
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, FetchPath,
    ::testing::Combine(::testing::Values(1, 7, 600),
                       ::testing::Values(1, 8, 1024),
                       ::testing::Bool()),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_slots" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_prefetch" : "_alone");
    });

// The page tallies count (row, page) pieces, not probes: a fetch whose
// pages are all resident adds one per piece, however many rows share a page.
TEST_F(SemTest, IoEnginePageTalliesCountRowPagePieces) {
  for (const index_t d : {index_t{7}, index_t{600}}) {
    data::GeneratorSpec spec;
    spec.d = d;
    spec.n = 400;
    const std::string path =
        make_matrix(spec, "t" + std::to_string(d) + ".kmat");
    PageFile file(path, 4096);
    PageCache cache(4 << 20, 4096, 2);
    IoEngine engine(file, cache, 1);
    std::vector<index_t> rows;
    for (index_t r = 0; r < spec.n; r += 1 + r % 3) rows.push_back(r);
    engine.prefetch(rows).wait();
    const std::uint64_t hits0 = engine.page_hits();
    DenseMatrix out(static_cast<index_t>(rows.size()), d);
    engine.fetch_rows(rows, out.data());
    EXPECT_EQ(engine.page_hits() - hits0, row_page_pieces(file, rows)) << d;
    EXPECT_EQ(engine.page_misses(), 0u) << d;
  }
}

// The page cache's contract through a prefetch (SNIPPETS.md §3): a cold
// pass reads the device, a warm pass is served from the cache alone, and
// after clear() the next pass reads the device again.
TEST_F(SemTest, PrefetchColdWarmAndDroppedPasses) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 7;  // 56-byte rows: some straddle pages
  const std::string path = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(path, 4096);
  PageCache cache(1 << 20, 4096, 2);
  IoEngine engine(file, cache, 1);
  std::vector<index_t> rows;
  for (index_t r = 0; r < spec.n; r += 3) rows.push_back(r);
  const std::uint64_t pieces = row_page_pieces(file, rows);
  DenseMatrix out(static_cast<index_t>(rows.size()), spec.d);
  struct Pass {
    std::uint64_t bytes_read, hits, misses;
  };
  const auto pass = [&] {
    const Pass before{file.bytes_read(), engine.page_hits(),
                      engine.page_misses()};
    engine.prefetch(rows).wait();
    engine.fetch_rows(rows, out.data());
    for (std::size_t i = 0; i < rows.size(); ++i)
      EXPECT_EQ(out.at(static_cast<index_t>(i), 3), m.at(rows[i], 3)) << i;
    return Pass{file.bytes_read() - before.bytes_read,
                engine.page_hits() - before.hits,
                engine.page_misses() - before.misses};
  };
  const Pass cold = pass();
  EXPECT_GT(cold.bytes_read, 0u);
  EXPECT_EQ(cold.hits, pieces);
  const Pass warm = pass();
  EXPECT_EQ(warm.bytes_read, 0u);
  EXPECT_EQ(warm.hits, pieces);
  EXPECT_EQ(warm.misses, 0u);
  cache.clear();
  const Pass dropped = pass();
  EXPECT_EQ(dropped.bytes_read, cold.bytes_read);
  EXPECT_EQ(dropped.hits, pieces);
}

// The engine's destructor stages every prefetch still queued and
// completes its ticket.
TEST_F(SemTest, IoEngineDestructorCompletesQueuedPrefetches) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 8;
  const std::string path = make_matrix(spec);
  PageFile file(path, 4096);
  PageCache cache(1 << 20, 4096, 2);
  std::vector<IoEngine::Ticket> tickets;
  {
    IoEngine engine(file, cache, 1);
    for (index_t r = 0; r < spec.n; r += 100)
      tickets.push_back(engine.prefetch({r, r + 50}));
  }
  for (IoEngine::Ticket& t : tickets) EXPECT_NO_THROW(t.wait());
  for (index_t r = 0; r < spec.n; r += 100) {
    EXPECT_TRUE(cache.contains(file.first_page_of_row(r))) << r;
    EXPECT_TRUE(cache.contains(file.first_page_of_row(r + 50))) << r;
  }
}

// A 2000-row .kmat cut to 100 rows after the engine opened it: a read past
// the cut is an error, not zero rows, both on the calling thread and
// through a prefetch ticket, and the I/O thread outlives the failure.
class ShrunkFile : public SemTest {
 protected:
  void SetUp() override {
    SemTest::SetUp();
    spec_.n = 2000;
    spec_.d = 8;
    const std::string path = make_matrix(spec_);
    file_ = std::make_unique<PageFile>(path, 4096);
    engine_ = std::make_unique<IoEngine>(*file_, cache_, 1);
    std::filesystem::resize_file(
        path, data::kHeaderBytes + 100 * spec_.d * sizeof(value_t));
  }
  data::GeneratorSpec spec_;
  PageCache cache_{1 << 20, 4096, 2};
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<IoEngine> engine_;
};

TEST_F(ShrunkFile, FetchPastTheCutThrows) {
  DenseMatrix out(1, spec_.d);
  EXPECT_THROW(engine_->fetch_rows({1500}, out.data()), std::runtime_error);
}

TEST_F(ShrunkFile, PrefetchTicketRethrowsTheStagingFailure) {
  EXPECT_THROW(engine_->prefetch({1500}).wait(), std::runtime_error);
  // Rows before the cut still stage and fetch.
  engine_->prefetch({10}).wait();
  DenseMatrix out(1, spec_.d);
  engine_->fetch_rows({10}, out.data());
  EXPECT_EQ(out.at(0, 0), data::generate(spec_).at(10, 0));
}

/// Partition `part`'s published row `r`, or nullptr when it is not cached.
const value_t* cached_row(const RowCache& rc, int part, index_t r,
                          index_t d) {
  const RowCache::Slab slab = rc.published(part);
  const index_t* end = slab.ids + slab.size;
  const index_t* it = std::lower_bound(slab.ids, end, r);
  if (it == end || *it != r) return nullptr;
  return slab.rows + static_cast<std::size_t>(it - slab.ids) * d;
}

// Refreshes run at I, 2I, 4I, ...; a run resumed at iteration 9 has missed
// the refresh at 5 and picks the schedule up at the next one.
TEST(RowCacheTest, LazyRefreshSchedule) {
  const auto refreshes_from = [](int first) {
    RowCache rc(1 << 16, 8, 2);
    rc.set_update_interval(5);
    std::vector<int> refresh_iters;
    for (int it = first; it <= 45; ++it) {
      if (rc.begin_iteration(it) == RowCache::Mode::kRefresh) {
        refresh_iters.push_back(it);
        rc.publish({0, 0});
      }
    }
    return refresh_iters;
  };
  EXPECT_EQ(refreshes_from(1), (std::vector<int>{5, 10, 20, 40}));
  EXPECT_EQ(refreshes_from(9), (std::vector<int>{10, 20, 40}));
}

TEST(RowCacheTest, StaticIterationsStageNothing) {
  RowCache rc(1 << 16, 4, 1);
  const value_t row[4] = {1, 2, 3, 4};

  // Static iteration: staging is ignored and publish changes nothing.
  rc.set_update_interval(5);
  EXPECT_EQ(rc.begin_iteration(1), RowCache::Mode::kStatic);
  rc.stage(0, 0, 7, row);
  rc.publish({1});
  EXPECT_EQ(rc.resident_rows(), 0u);
  EXPECT_EQ(cached_row(rc, 0, 7, 4), nullptr);

  // Refresh iteration: a staged row is visible only after publish.
  rc.set_update_interval(2);
  EXPECT_EQ(rc.begin_iteration(2), RowCache::Mode::kRefresh);
  rc.stage(0, 0, 7, row);
  EXPECT_EQ(cached_row(rc, 0, 7, 4), nullptr);  // not yet published
  rc.publish({1});
  const value_t* got = cached_row(rc, 0, 7, 4);
  ASSERT_NE(got, nullptr);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(got[j], row[j]);
  EXPECT_EQ(rc.resident_rows(), 1u);
}

TEST(RowCacheTest, RefreshFlushesPreviousContents) {
  RowCache rc(1 << 16, 2, 1);
  rc.set_update_interval(1);
  const value_t a[2] = {1, 1};
  const value_t b[2] = {2, 2};
  rc.begin_iteration(1);
  rc.stage(0, 0, 100, a);
  rc.publish({1});
  ASSERT_NE(cached_row(rc, 0, 100, 2), nullptr);
  rc.begin_iteration(2);
  rc.stage(0, 0, 200, b);
  rc.publish({1});
  EXPECT_EQ(cached_row(rc, 0, 100, 2), nullptr);  // flushed
  EXPECT_NE(cached_row(rc, 0, 200, 2), nullptr);
  EXPECT_EQ(rc.resident_rows(), 1u);
}

// Each partition publishes min(budget, its active rows).
TEST(RowCacheTest, BudgetCapsResidency) {
  RowCache rc(2 * 4 * 8 * sizeof(value_t), 8, 2);  // 4 rows per partition
  ASSERT_EQ(rc.rows_per_part(), 4u);
  rc.set_update_interval(1);
  const value_t row[8] = {};
  rc.begin_iteration(1);
  for (std::size_t rank = 0; rank < 4; ++rank) rc.stage(0, rank, rank, row);
  for (std::size_t rank = 0; rank < 2; ++rank)
    rc.stage(1, rank, 500 + rank, row);
  rc.publish({100, 2});  // partition 0 had 100 active rows, partition 1 two
  EXPECT_EQ(rc.published(0).size, 4u);
  EXPECT_EQ(rc.published(1).size, 2u);
  EXPECT_EQ(rc.resident_rows(), 6u);
  EXPECT_EQ(rc.bytes(),
            2 * rc.capacity_rows() * (8 * sizeof(value_t) + sizeof(index_t)));
}

// Slots are addressed by rank, so the published ids and bytes do not
// depend on the order in which workers stage them.
TEST(RowCacheTest, PublishedRowsIndependentOfStagingOrder) {
  constexpr index_t kD = 8;
  constexpr std::size_t kBudget = 4;
  // Partition 0's active rows, ascending; only the first kBudget fit.
  const std::vector<index_t> active = {3, 9, 10, 42, 57, 60, 81};
  std::vector<std::size_t> ascending(active.size());
  std::iota(ascending.begin(), ascending.end(), std::size_t(0));
  std::vector<std::size_t> descending(ascending.rbegin(), ascending.rend());
  std::vector<std::size_t> shuffled = ascending;
  std::mt19937_64 rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const auto* order : {&ascending, &descending, &shuffled}) {
    RowCache rc(kBudget * kD * sizeof(value_t), kD, 1);
    ASSERT_EQ(rc.rows_per_part(), kBudget);
    rc.set_update_interval(1);
    rc.begin_iteration(1);
    for (const std::size_t rank : *order) {
      if (rank >= kBudget) continue;  // past the budget: the caller skips it
      const index_t r = active[rank];
      value_t row[kD];
      for (index_t j = 0; j < kD; ++j)
        row[j] = static_cast<value_t>(r * 100 + j);
      rc.stage(0, rank, r, row);
    }
    rc.publish({active.size()});
    const RowCache::Slab slab = rc.published(0);
    ASSERT_EQ(slab.size, kBudget);
    for (std::size_t i = 0; i < kBudget; ++i) {
      EXPECT_EQ(slab.ids[i], active[i]);
      for (index_t j = 0; j < kD; ++j)
        EXPECT_EQ(slab.rows[i * kD + j],
                  static_cast<value_t>(active[i] * 100 + j));
    }
    EXPECT_EQ(cached_row(rc, 0, active[kBudget], kD), nullptr);
  }
}

// --- knors end-to-end -------------------------------------------------------

class KnorsConfig
    : public SemTest,
      public ::testing::WithParamInterface<std::tuple<bool, bool, int>> {};

TEST_P(KnorsConfig, MatchesKnoriClustering) {
  const auto [prune, row_cache, threads] = GetParam();
  data::GeneratorSpec spec;
  spec.n = 6000;
  spec.d = 12;
  spec.true_clusters = 8;
  spec.seed = 17;
  const std::string path = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);

  Options opts;
  opts.k = 8;
  opts.threads = threads;
  opts.max_iters = 40;
  opts.seed = 5;
  opts.prune = prune;

  const Result ref = kmeans(m.const_view(), opts);

  SemOptions sopts;
  sopts.page_size = 512;
  sopts.page_cache_bytes = 64 << 10;
  sopts.row_cache_bytes = 128 << 10;
  sopts.row_cache_enabled = row_cache;
  sopts.io_batch_rows = 256;
  SemStats stats;
  const Result res = kmeans(path, opts, sopts, &stats);

  // knors runs knori's loop and hands it the same rows in the same order,
  // so every bit and every algorithmic counter agrees.
  EXPECT_EQ(res.iters, ref.iters);
  EXPECT_EQ(res.converged, ref.converged);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < ref.assignments.size(); ++i)
    if (res.assignments[i] != ref.assignments[i]) ++mismatched;
  EXPECT_EQ(mismatched, 0u);
  ASSERT_EQ(res.centroids.rows(), ref.centroids.rows());
  ASSERT_EQ(res.centroids.cols(), ref.centroids.cols());
  EXPECT_EQ(std::memcmp(res.centroids.data(), ref.centroids.data(),
                        ref.centroids.size() * sizeof(value_t)),
            0);
  EXPECT_EQ(std::memcmp(&res.energy, &ref.energy, sizeof(double)), 0)
      << res.energy << " vs " << ref.energy;
  EXPECT_EQ(res.cluster_sizes, ref.cluster_sizes);
  EXPECT_EQ(res.counters.dist_computations, ref.counters.dist_computations);
  EXPECT_EQ(res.counters.clause1_skips, ref.counters.clause1_skips);
  EXPECT_EQ(res.counters.clause2_skips, ref.counters.clause2_skips);
  EXPECT_EQ(res.counters.clause3_skips, ref.counters.clause3_skips);
  EXPECT_EQ(stats.per_iter.size(), res.iters);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KnorsConfig,
    ::testing::Combine(::testing::Bool(),      // prune
                       ::testing::Bool(),      // row cache
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "mti" : "nomti") + "_" +
             (std::get<1>(info.param) ? "rc" : "norc") + "_t" +
             std::to_string(std::get<2>(info.param));
    });

TEST_F(SemTest, Clause1SkipsReduceRequestedBytes) {
  data::GeneratorSpec spec;
  spec.n = 8000;
  spec.d = 16;
  spec.true_clusters = 6;
  const std::string path = make_matrix(spec);

  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 30;

  SemOptions sopts;
  sopts.row_cache_enabled = false;  // isolate the pruning effect
  SemStats pruned_stats;
  opts.prune = true;
  kmeans(path, opts, sopts, &pruned_stats);

  SemStats full_stats;
  opts.prune = false;
  kmeans(path, opts, sopts, &full_stats);

  // knors- requests the full matrix every iteration; knors must request
  // strictly less after the first iteration.
  EXPECT_LT(pruned_stats.total_requested(), full_stats.total_requested());
  const auto row_bytes = 16 * sizeof(value_t);
  for (const auto& iter : full_stats.per_iter)
    EXPECT_EQ(iter.bytes_requested, 8000u * row_bytes);
}

TEST_F(SemTest, RowCacheReducesBytesRead) {
  data::GeneratorSpec spec;
  spec.n = 8000;
  spec.d = 16;
  spec.true_clusters = 6;
  const std::string path = make_matrix(spec);

  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 40;

  SemOptions with_rc;
  with_rc.page_cache_bytes = 32 << 10;  // tiny page cache isolates the RC
  with_rc.row_cache_bytes = 1 << 20;
  SemOptions without_rc = with_rc;
  without_rc.row_cache_enabled = false;

  SemStats rc_stats, norc_stats;
  kmeans(path, opts, with_rc, &rc_stats);
  kmeans(path, opts, without_rc, &norc_stats);

  EXPECT_LT(rc_stats.total_read(), norc_stats.total_read());
  std::uint64_t hits = 0;
  for (const auto& iter : rc_stats.per_iter) hits += iter.row_cache_hits;
  EXPECT_GT(hits, 0u);
}

// The registry's run totals are the sums of the per-iteration series (the
// workers reset their tallies every iteration, so a total taken after the
// loop would hold only the last one).
TEST_F(SemTest, RunCountersSumThePerIterationSeries) {
  data::GeneratorSpec spec;
  spec.n = 8000;
  spec.d = 16;
  spec.true_clusters = 6;
  const std::string path = make_matrix(spec);
  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 40;
  opts.prune = true;
  SemOptions sopts;
  sopts.page_cache_bytes = 32 << 10;
  sopts.row_cache_bytes = 1 << 20;
  SemStats stats;
  const Result res = kmeans(path, opts, sopts, &stats);

  std::uint64_t active = 0;
  std::uint64_t hits = 0;
  for (const auto& iter : stats.per_iter) {
    active += iter.active_rows;
    hits += iter.row_cache_hits;
  }
  ASSERT_GT(stats.per_iter.size(), 5u);
  ASSERT_GT(hits, 0u);
  ASSERT_GT(stats.per_iter.front().active_rows,
            stats.per_iter.back().active_rows);
  EXPECT_EQ(res.metrics.value_or("sem.active_rows", -1),
            static_cast<std::int64_t>(active));
  EXPECT_EQ(res.metrics.value_or("sem.row_cache_hits", -1),
            static_cast<std::int64_t>(hits));
}

// Row-cache hits are declared deterministic: with three workers stealing
// chunks, a cache smaller than the active set and a refresh at iterations
// 1, 2, 4 and 8, which worker offers a row first varies between runs, and
// the hits must not.
TEST_F(SemTest, RowCacheHitsRepeatAcrossRunsAtThreeThreads) {
  data::GeneratorSpec spec;
  spec.n = 24000;
  spec.d = 8;
  spec.true_clusters = 8;
  const std::string path = make_matrix(spec);
  Options opts;
  opts.k = 8;
  opts.threads = 3;
  opts.max_iters = 12;
  opts.prune = true;
  opts.task_size = 256;
  SemOptions sopts;
  sopts.page_cache_bytes = 64 << 10;
  sopts.row_cache_bytes = 48 << 10;  // 768 rows, fewer than are active
  sopts.cache_update_interval = 1;

  std::vector<std::uint64_t> first_hits;
  std::int64_t first_total = -1;
  std::int64_t first_requested = -1;
  for (int run = 0; run < 5; ++run) {
    SemStats stats;
    const Result res = kmeans(path, opts, sopts, &stats);
    std::vector<std::uint64_t> hits;
    for (const auto& iter : stats.per_iter) {
      hits.push_back(iter.row_cache_hits);
      EXPECT_GT(iter.active_rows, 768u) << "run " << run;
    }
    const std::int64_t total = res.metrics.value_or("sem.row_cache_hits", -1);
    const std::int64_t requested =
        res.metrics.value_or("sem.bytes_requested", -1);
    if (run == 0) {
      ASSERT_GT(total, 0);
      first_hits = hits;
      first_total = total;
      first_requested = requested;
      continue;
    }
    EXPECT_EQ(hits, first_hits) << "run " << run;
    EXPECT_EQ(total, first_total) << "run " << run;
    EXPECT_EQ(requested, first_requested) << "run " << run;
  }
}

// Chunks of 64 rows straddle the home-partition boundaries at rows 333
// and 666, so a chunk's active rows rank in two partitions. With a cache
// below the active set refreshed at iterations 1, 2, 4 and 8, the hits of
// every iteration are pinned (recorded with admission by a per-partition
// heap of the smallest offered ids) and must not depend on the schedule.
TEST_F(SemTest, RowCacheHitsPinnedWhenChunksStraddlePartitions) {
  data::GeneratorSpec spec;
  spec.n = 1000;
  spec.d = 8;
  spec.true_clusters = 5;
  spec.seed = 31;
  const std::string path = make_matrix(spec);
  Options opts;
  opts.k = 5;
  opts.threads = 3;
  opts.numa_nodes = 2;
  opts.max_iters = 12;
  opts.prune = true;
  opts.seed = 3;
  opts.task_size = 64;
  SemOptions sopts;
  sopts.page_size = 512;
  sopts.page_cache_bytes = 16 << 10;
  sopts.row_cache_bytes = 96 * 8 * sizeof(value_t);  // 32 rows a partition
  sopts.cache_update_interval = 1;
  const std::vector<std::uint64_t> want = {0,  78, 96, 96, 95, 96,
                                           95, 95, 96, 96, 96, 96};
  for (const auto policy :
       {sched::SchedPolicy::kNumaAware, sched::SchedPolicy::kFifo,
        sched::SchedPolicy::kStatic}) {
    opts.sched = policy;
    SemStats stats;
    kmeans(path, opts, sopts, &stats);
    std::vector<std::uint64_t> hits;
    for (const auto& iter : stats.per_iter) {
      hits.push_back(iter.row_cache_hits);
      EXPECT_GT(iter.active_rows, 96u) << sched::to_string(policy);
    }
    EXPECT_EQ(hits, want) << sched::to_string(policy);
  }
}

TEST_F(SemTest, ActiveRowsShrinkOverIterations) {
  data::GeneratorSpec spec;
  spec.n = 6000;
  spec.d = 8;
  spec.true_clusters = 5;
  const std::string path = make_matrix(spec);
  Options opts;
  opts.k = 5;
  opts.threads = 2;
  opts.max_iters = 30;
  SemOptions sopts;
  SemStats stats;
  kmeans(path, opts, sopts, &stats);
  ASSERT_GE(stats.per_iter.size(), 3u);
  EXPECT_EQ(stats.per_iter[0].active_rows, 6000u);  // first iter: everything
  // Convergence tail must be far below the first iteration.
  EXPECT_LT(stats.per_iter.back().active_rows, 6000u);
}

TEST_F(SemTest, UnsupportedInitThrows) {
  data::GeneratorSpec spec;
  spec.n = 100;
  spec.d = 4;
  const std::string path = make_matrix(spec);
  Options opts;
  opts.k = 3;
  opts.init = Init::kKmeansPP;
  EXPECT_THROW(kmeans(path, opts, SemOptions{}), std::invalid_argument);
}

TEST_F(SemTest, HostileMatrixHeaderRejected) {
  // A .kmat whose header declares exabytes of rows over a 1KB file must be
  // rejected by name before the SEM engine sizes any per-row state from it
  // (fuzz corpus: tests/fuzz/corpus/matrix_io).
  data::GeneratorSpec spec;
  spec.n = 16;
  spec.d = 4;
  const std::string path = make_matrix(spec, "hostile.kmat");
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const std::uint64_t huge = 1ull << 61;
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);  // n field
    ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
    std::fclose(f);
  }
  Options opts;
  opts.k = 2;
  try {
    kmeans(path, opts, SemOptions{});
    FAIL() << "hostile header was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hostile size field"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SemTest, MissingFileThrows) {
  Options opts;
  opts.k = 2;
  EXPECT_THROW(kmeans(dir_ / "missing.kmat", opts, SemOptions{}),
               std::runtime_error);
}

TEST_F(SemTest, SsdCostModelSlowsReads) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 8;
  const std::string path = make_matrix(spec);
  PageFile plain(path, 4096);
  SsdCostModel cost;
  cost.latency_us = 300;
  PageFile slow(path, 4096, cost);
  std::vector<unsigned char> buf(4096);
  const auto t0 = std::chrono::steady_clock::now();
  plain.read_pages(0, 1, buf.data());
  const auto t1 = std::chrono::steady_clock::now();
  slow.read_pages(0, 1, buf.data());
  const auto t2 = std::chrono::steady_clock::now();
  EXPECT_GT((t2 - t1).count(), (t1 - t0).count());
}

}  // namespace
}  // namespace knor::sem
