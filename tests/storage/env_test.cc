#include "storage/env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>
#include <vector>

namespace riot {
namespace {

void RoundTrip(Env* env, const std::string& path) {
  auto file = env->OpenFile(path, /*create=*/true);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const char msg[] = "hello block storage";
  ASSERT_TRUE((*file)->Write(100, sizeof(msg), msg).ok());
  char buf[sizeof(msg)] = {};
  ASSERT_TRUE((*file)->Read(100, sizeof(msg), buf).ok());
  EXPECT_STREQ(buf, msg);
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 100 + sizeof(msg));
}

TEST(MemEnvTest, ReadWriteRoundTrip) {
  auto env = NewMemEnv();
  RoundTrip(env.get(), "/x/y");
  EXPECT_TRUE(env->FileExists("/x/y"));
  EXPECT_FALSE(env->FileExists("/x/z"));
  EXPECT_TRUE(env->DeleteFile("/x/y").ok());
  EXPECT_FALSE(env->FileExists("/x/y"));
}

TEST(MemEnvTest, OpenMissingWithoutCreateFails) {
  auto env = NewMemEnv();
  auto f = env->OpenFile("/missing", /*create=*/false);
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kNotFound);
}

TEST(MemEnvTest, ReadPastEndFails) {
  auto env = NewMemEnv();
  auto f = env->OpenFile("/f", true);
  char b[16];
  EXPECT_FALSE((*f)->Read(0, 16, b).ok());
}

// MemEnv keeps a file in 64 KiB chunks. Seeded writes of every size, at
// offsets that straddle chunk boundaries or leave holes past the end, must
// read back exactly like one flat zero-filled buffer, with the same size,
// read-past-end errors and I/O counts.
TEST(MemEnvTest, ChunkedFileMatchesFlatBuffer) {
  auto env = NewMemEnv();
  auto f = env->OpenFile("/chunked", true);
  ASSERT_TRUE(f.ok());
  std::vector<uint8_t> model;
  std::mt19937 rng(64);
  auto below = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const size_t kChunk = size_t{64} << 10;
  int64_t written = 0, read = 0, write_ops = 0, read_ops = 0;
  for (int i = 0; i < 400; ++i) {
    const size_t n = i % 7 == 0 ? below(3 * kChunk) : below(5000);
    size_t offset = below(model.size() + kChunk / 2);
    if (i % 5 == 0) {  // straddle a chunk boundary
      const size_t boundary = kChunk * (1 + below(4));
      offset = boundary - std::min(boundary, below(n + 1));
    }
    std::vector<uint8_t> data(n);
    for (auto& b : data) b = static_cast<uint8_t>(rng());
    ASSERT_TRUE((*f)->Write(offset, n, data.data()).ok());
    if (offset + n > model.size()) model.resize(offset + n);
    std::copy(data.begin(), data.end(), model.begin() + offset);
    written += static_cast<int64_t>(n);
    ++write_ops;

    auto size = (*f)->Size();
    ASSERT_TRUE(size.ok());
    ASSERT_EQ(*size, model.size());
    const size_t from = below(model.size() + 1);
    const size_t len = below(model.size() - from + 1);
    std::vector<uint8_t> got(len);
    ASSERT_TRUE((*f)->Read(from, len, got.data()).ok());
    ASSERT_TRUE(std::equal(got.begin(), got.end(), model.begin() + from))
        << "read " << len << " at " << from << " after write " << i;
    read += static_cast<int64_t>(len);
    ++read_ops;
    uint8_t byte;
    EXPECT_FALSE((*f)->Read(model.size(), 1, &byte).ok());
  }
  EXPECT_EQ(env->stats().bytes_written.load(), written);
  EXPECT_EQ(env->stats().bytes_read.load(), read);
  EXPECT_EQ(env->stats().write_ops.load(), write_ops);
  EXPECT_EQ(env->stats().read_ops.load(), read_ops);
}

TEST(MemEnvTest, StatsCountBytesAndOps) {
  auto env = NewMemEnv();
  auto f = env->OpenFile("/f", true);
  char buf[64] = {};
  ASSERT_TRUE((*f)->Write(0, 64, buf).ok());
  ASSERT_TRUE((*f)->Read(0, 32, buf).ok());
  EXPECT_EQ(env->stats().bytes_written.load(), 64);
  EXPECT_EQ(env->stats().bytes_read.load(), 32);
  EXPECT_EQ(env->stats().write_ops.load(), 1);
  EXPECT_EQ(env->stats().read_ops.load(), 1);
  env->stats().Reset();
  EXPECT_EQ(env->stats().bytes_written.load(), 0);
}

TEST(PosixEnvTest, ReadWriteRoundTrip) {
  auto env = NewPosixEnv();
  std::string path =
      (std::filesystem::temp_directory_path() / "riot_env_test.bin").string();
  env->DeleteFile(path).CheckOK();
  RoundTrip(env.get(), path);
  EXPECT_TRUE(env->FileExists(path));
  EXPECT_TRUE(env->DeleteFile(path).ok());
}

TEST(ThrottledEnvTest, AccruesModeledSeconds) {
  auto mem = NewMemEnv();
  // 1 MB/s read, 0.5 MB/s write, no per-request overhead.
  auto env = NewThrottledEnv(mem.get(), 1.0, 0.5, 0.0);
  auto f = env->OpenFile("/f", true);
  std::vector<char> mb(1000000);
  ASSERT_TRUE((*f)->Write(0, mb.size(), mb.data()).ok());
  ASSERT_TRUE((*f)->Read(0, mb.size(), mb.data()).ok());
  // 1 MB write at 0.5 MB/s = 2 s; 1 MB read at 1 MB/s = 1 s.
  EXPECT_NEAR(env->stats().modeled_seconds(), 3.0, 1e-9);
}

TEST(ThrottledEnvTest, PerRequestOverhead) {
  auto mem = NewMemEnv();
  auto env = NewThrottledEnv(mem.get(), 1e9, 1e9, /*per_request_ms=*/10.0);
  auto f = env->OpenFile("/f", true);
  char b[8] = {};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*f)->Write(0, 8, b).ok());
  }
  EXPECT_NEAR(env->stats().modeled_seconds(), 0.05, 1e-6);
}

TEST(IoStatsTest, ModelSecondsUsesPaperRates) {
  IoStats s;
  s.bytes_read = 96 * 1000000;   // 1 second at 96 MB/s
  s.bytes_written = 60 * 1000000;  // 1 second at 60 MB/s
  EXPECT_NEAR(s.ModelSeconds(96.0, 60.0), 2.0, 1e-9);
}

}  // namespace
}  // namespace riot
