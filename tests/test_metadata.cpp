// Persistent metadata region: create/attach, record lifecycle, the
// persisted record layout.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "vmem/metadata.hpp"

namespace nvmcp::vmem {
namespace {

NvmConfig cfg() {
  NvmConfig c;
  c.capacity = 8 * MiB;
  c.throttle = false;
  return c;
}

TEST(Metadata, CreateThenAttach) {
  NvmDevice dev(cfg());
  MetadataRegion created = MetadataRegion::create(dev, kNvmPageSize, 64);
  EXPECT_EQ(created.capacity(), 64u);
  EXPECT_EQ(dev.root(), kNvmPageSize);

  MetadataRegion attached = MetadataRegion::attach(dev);
  EXPECT_EQ(attached.capacity(), 64u);
  EXPECT_EQ(attached.region_offset(), kNvmPageSize);
}

TEST(Metadata, AttachWithoutRootThrows) {
  NvmDevice dev(cfg());
  EXPECT_THROW(MetadataRegion::attach(dev), NvmcpError);
}

TEST(Metadata, ZeroCapacityRejected) {
  NvmDevice dev(cfg());
  EXPECT_THROW(MetadataRegion::create(dev, kNvmPageSize, 0), NvmcpError);
}

TEST(Metadata, InsertFindErase) {
  NvmDevice dev(cfg());
  MetadataRegion meta = MetadataRegion::create(dev, kNvmPageSize, 8);
  ChunkRecord* rec = meta.insert(42, "electrons");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->valid());
  EXPECT_EQ(rec->id, 42u);
  EXPECT_STREQ(rec->name, "electrons");
  EXPECT_FALSE(rec->has_committed());

  EXPECT_EQ(meta.find(42), rec);
  EXPECT_EQ(meta.find(43), nullptr);
  EXPECT_EQ(meta.record_count(), 1u);

  meta.erase(42);
  EXPECT_EQ(meta.find(42), nullptr);
  EXPECT_EQ(meta.record_count(), 0u);
}

TEST(Metadata, DuplicateInsertThrows) {
  NvmDevice dev(cfg());
  MetadataRegion meta = MetadataRegion::create(dev, kNvmPageSize, 8);
  meta.insert(1, "a");
  EXPECT_THROW(meta.insert(1, "b"), NvmcpError);
}

TEST(Metadata, TableFullThrows) {
  NvmDevice dev(cfg());
  MetadataRegion meta = MetadataRegion::create(dev, kNvmPageSize, 3);
  meta.insert(1, "a");
  meta.insert(2, "b");
  meta.insert(3, "c");
  EXPECT_THROW(meta.insert(4, "d"), NvmcpError);
  meta.erase(2);
  EXPECT_NE(meta.insert(4, "d"), nullptr);  // slot reuse
}

TEST(Metadata, LongNameTruncatedSafely) {
  NvmDevice dev(cfg());
  MetadataRegion meta = MetadataRegion::create(dev, kNvmPageSize, 4);
  const std::string longname(100, 'x');
  ChunkRecord* rec = meta.insert(9, longname);
  EXPECT_LT(std::strlen(rec->name), sizeof(rec->name));
}

TEST(Metadata, UnnamedInsertLeavesNameEmpty) {
  // A default string_view has a null data(); UBSan builds abort if that
  // reaches memcpy.
  NvmDevice dev(cfg());
  MetadataRegion meta = MetadataRegion::create(dev, kNvmPageSize, 4);
  ChunkRecord* rec = meta.insert(5, std::string_view{});
  EXPECT_STREQ(rec->name, "");
  EXPECT_EQ(meta.find(5), rec);
}

TEST(Metadata, RecordsPersistAcrossAttach) {
  NvmDevice dev(cfg());
  {
    MetadataRegion meta = MetadataRegion::create(dev, kNvmPageSize, 8);
    ChunkRecord* rec = meta.insert(7, "ions");
    rec->size = 12345;
    rec->slot_off[0] = 8192;
    meta.persist_record(*rec);
  }
  MetadataRegion meta = MetadataRegion::attach(dev);
  const ChunkRecord* rec = meta.find(7);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->size, 12345u);
  EXPECT_EQ(rec->slot_off[0], 8192u);
}

TEST(Metadata, ForEachVisitsOnlyValid) {
  NvmDevice dev(cfg());
  MetadataRegion meta = MetadataRegion::create(dev, kNvmPageSize, 8);
  meta.insert(1, "a");
  meta.insert(2, "b");
  meta.erase(1);
  int visits = 0;
  meta.for_each([&](const ChunkRecord& r) {
    ++visits;
    EXPECT_EQ(r.id, 2u);
  });
  EXPECT_EQ(visits, 1);
}

TEST(Metadata, HeaderCursorPersists) {
  NvmDevice dev(cfg());
  MetadataRegion meta = MetadataRegion::create(dev, kNvmPageSize, 8);
  const auto base = meta.header().alloc_cursor;
  meta.header().alloc_cursor = base + 4096;
  meta.persist_header();
  MetadataRegion again = MetadataRegion::attach(dev);
  EXPECT_EQ(again.header().alloc_cursor, base + 4096);
}

}  // namespace
}  // namespace nvmcp::vmem
