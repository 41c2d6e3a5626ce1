#include "kv/mdblite.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <ranges>
#include <stdexcept>
#include <utility>

namespace hatrpc::kv {

namespace {
constexpr size_t kPageHeader = 32;
constexpr size_t kCellHeader = 16;
constexpr uint8_t kOverflowCell = 1;  // cell flag: the value is a PageId
constexpr size_t kMaxKey = size_t{1} << 30;
constexpr const char* kWriterActive = "mdblite: writer already active";
constexpr const char* kReadersFull = "mdblite: reader table full";

uint32_t load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store32(char* p, size_t v) {
  uint32_t u = static_cast<uint32_t>(v);
  std::memcpy(p, &u, sizeof u);
}
}  // namespace

/// In-memory page, kept as a flat image the way LMDB keeps one: `bytes`
/// holds the cells back to back in key order and `offs[i]` is where cell i
/// starts, so copying a page is copying two or three flat arrays. A cell is
///
///   [u32 key size][u32 value size][u8 flags][7 reserved][key][value]
///
/// Branch cells have no value; their children sit in `children`, one more
/// than the cells. A leaf cell flagged kOverflowCell stores the 8-byte id
/// of an overflow page as its value. An overflow page has no cells: its
/// `bytes` are the payload().
///
/// The header is the kCellHeader bytes the page budget charges per cell,
/// so the image size is exactly that budget: per cell the key plus
/// kCellHeader plus the value (or the 8-byte overflow ref), and per child
/// 8 bytes. used() adds up two sizes instead of walking the cells.
struct Page {
  PageId id = 0;
  bool leaf = true;
  uint64_t born_txn = 0;
  std::vector<char> bytes;
  std::vector<uint32_t> offs;
  std::vector<PageId> children;  // branch only; size() + 1

  size_t size() const { return offs.size(); }
  size_t used() const {
    return bytes.size() + children.size() * sizeof(PageId);
  }

  const char* cell(size_t i) const { return bytes.data() + offs[i]; }
  size_t key_size(size_t i) const { return load32(cell(i)); }
  size_t value_size(size_t i) const { return load32(cell(i) + 4); }
  bool overflow(size_t i) const {
    return static_cast<uint8_t>(cell(i)[8]) & kOverflowCell;
  }
  std::string_view key(size_t i) const {
    return {cell(i) + kCellHeader, key_size(i)};
  }
  std::string_view value(size_t i) const {
    return {cell(i) + kCellHeader + key_size(i), value_size(i)};
  }
  std::string_view payload() const { return {bytes.data(), bytes.size()}; }
  PageId overflow_ref(size_t i) const {
    PageId ref;
    std::memcpy(&ref, value(i).data(), sizeof ref);
    return ref;
  }

  // Resizes the `len` bytes at `at` to `n` bytes (new bytes are zero) and
  // moves the offsets of cells [from, size()) with the tail. Buffers grow
  // to fit exactly (reserve, not insert's doubling): slack would stay in
  // every page.
  void splice(size_t at, size_t len, size_t n, size_t from) {
    if (n > len) {
      bytes.reserve(bytes.size() + n - len);
      bytes.insert(bytes.begin() + at + len, n - len, '\0');
    } else {
      bytes.erase(bytes.begin() + at + n, bytes.begin() + at + len);
    }
    for (size_t j = from; j < offs.size(); ++j)
      offs[j] += static_cast<uint32_t>(n - len);  // mod 2^32 when shrinking
  }

  void insert(size_t i, std::string_view key, std::string_view value,
              uint8_t flags) {
    const size_t at = i < offs.size() ? offs[i] : bytes.size();
    offs.insert(offs.begin() + i, static_cast<uint32_t>(at));
    splice(at, 0, kCellHeader + key.size() + value.size(), i + 1);
    char* c = bytes.data() + at;
    store32(c, key.size());
    store32(c + 4, value.size());
    c[8] = static_cast<char>(flags);
    // std::copy, not memcpy: an empty view may have a null data().
    std::copy(key.begin(), key.end(), c + kCellHeader);
    std::copy(value.begin(), value.end(), c + kCellHeader + key.size());
  }

  void set_value(size_t i, std::string_view value, uint8_t flags) {
    const size_t at = offs[i] + kCellHeader + key_size(i);
    splice(at, value_size(i), value.size(), i + 1);
    char* c = bytes.data() + offs[i];
    store32(c + 4, value.size());
    c[8] = static_cast<char>(flags);
    std::copy(value.begin(), value.end(), bytes.data() + at);
  }

  void erase(size_t i) {
    splice(offs[i], kCellHeader + key_size(i) + value_size(i), 0, i + 1);
    offs.erase(offs.begin() + i);
  }

  // Appends cells [from, src.size()) of `src`.
  void append(const Page& src, size_t from) {
    if (from == src.size()) return;
    const size_t start = src.offs[from];
    const size_t at = bytes.size();
    bytes.reserve(at + src.bytes.size() - start);
    bytes.insert(bytes.end(), src.bytes.begin() + start, src.bytes.end());
    for (size_t j = from; j < src.size(); ++j)
      offs.push_back(static_cast<uint32_t>(src.offs[j] - start + at));
  }

  // Keeps cells [0, n). Splits end here, so the buffer is trimmed too.
  void truncate(size_t n) {
    bytes.resize(offs[n]);
    bytes.shrink_to_fit();
    offs.resize(n);
  }
};

// ===========================================================================
// Env
// ===========================================================================

Env::Env(EnvOptions opts) : opts_(opts) {
  reader_txns_.assign(opts_.max_readers, 0);
}

Env::~Env() = default;

Page* Env::page(PageId id) {
  assert(id < pages_.size());
  return pages_[id].get();
}

Page* Env::alloc_page(bool leaf, uint64_t txn_id) {
  PageId id;
  if (!reusable_.empty()) {
    id = reusable_.back();
    reusable_.pop_back();
    // Drop the old image's buffers rather than keep their capacity: images
    // are sized to fit, and recycled slack would pin memory in every page.
    *pages_[id] = Page{};
    ++stats_.reclaimed;
  } else {
    id = pages_.size();
    pages_.push_back(std::make_unique<Page>());
  }
  Page* p = pages_[id].get();
  p->id = id;
  p->leaf = leaf;
  p->born_txn = txn_id;
  return p;
}

void Env::free_page(PageId id, uint64_t txn_id) {
  freelist_.push_back({id, txn_id});
}

uint64_t Env::oldest_reader_txn() const {
  uint64_t oldest = ~uint64_t{0};
  for (uint64_t t : reader_txns_)
    if (t != 0) oldest = std::min(oldest, t);
  return oldest;
}

void Env::reclaim() {
  // A page freed by commit T is still referenced by readers whose snapshot
  // predates T (reader slots store snapshot_txn + 1, so "needs it" means
  // slot value <= T). Recycle only when every live reader started at or
  // after T.
  uint64_t oldest = oldest_reader_txn();
  std::erase_if(freelist_, [&](const FreedPage& f) {
    if (oldest == ~uint64_t{0} || f.txn_id < oldest) {
      reusable_.push_back(f.id);
      return true;
    }
    return false;
  });
}

uint64_t Env::last_txn_id() const { return metas_[newest_meta_].txn_id; }

size_t Env::live_pages() const {
  return pages_.size() - reusable_.size() - freelist_.size();
}

Txn Env::begin(bool write) {
  if (write) {
    if (writer_active_) throw std::runtime_error(kWriterActive);
    writer_active_ = true;
    return Txn(*this, true, -1);
  }
  for (uint32_t i = 0; i < opts_.max_readers; ++i) {
    if (reader_txns_[i] == 0) {
      reader_txns_[i] = metas_[newest_meta_].txn_id + 1;  // 0 is "free"
      ++active_readers_;
      return Txn(*this, false, static_cast<int>(i));
    }
  }
  throw std::runtime_error(kReadersFull);
}

// ===========================================================================
// Txn
// ===========================================================================

Txn::Txn(Env& env, bool write, int reader_slot)
    : env_(&env), write_(write), reader_slot_(reader_slot) {
  const Env::MetaPage& meta = env.metas_[env.newest_meta_];
  dbs_ = meta.dbs;  // snapshot of every database's root
  txn_id_ = meta.txn_id + 1;  // readers remember "as of" id; writer gets next
}

Txn::DbState& Txn::state(std::string_view db) {
  return dbs_[std::string(db)];
}

const Txn::DbState* Txn::state_if_exists(std::string_view db) const {
  auto it = dbs_.find(std::string(db));
  return it == dbs_.end() ? nullptr : &it->second;
}

Txn::Txn(Txn&& o) noexcept { *this = std::move(o); }

Txn& Txn::operator=(Txn&& o) noexcept {
  if (this != &o) {
    if (env_ && !done_) abort();
    env_ = std::exchange(o.env_, nullptr);
    write_ = o.write_;
    done_ = o.done_;
    reader_slot_ = o.reader_slot_;
    txn_id_ = o.txn_id_;
    dbs_ = std::move(o.dbs_);
    pages_touched_ = o.pages_touched_;
    dirty_ = std::move(o.dirty_);
    freed_ = std::move(o.freed_);
    o.done_ = true;
  }
  return *this;
}

Txn::~Txn() {
  if (env_ && !done_) abort();
}

void Txn::finish() {
  done_ = true;
  if (write_) {
    env_->writer_active_ = false;
  } else if (reader_slot_ >= 0) {
    env_->reader_txns_[reader_slot_] = 0;
    --env_->active_readers_;
    env_->reclaim();
  }
}

void Txn::abort() {
  if (done_) return;
  if (write_) {
    // Dirty pages were never published; recycle them immediately.
    for (PageId id : dirty_) env_->reusable_.push_back(id);
    ++env_->stats_.aborts;
  }
  finish();
}

CommitInfo Txn::commit() {
  if (done_) throw std::logic_error("mdblite: txn already finished");
  if (!write_) {
    finish();
    return CommitInfo{txn_id_, 0};
  }
  Env::MetaPage& meta = env_->metas_[1 - env_->newest_meta_];
  meta.dbs = dbs_;
  meta.txn_id = txn_id_;
  env_->newest_meta_ = 1 - env_->newest_meta_;
  for (PageId id : freed_) env_->free_page(id, txn_id_);
  env_->stats_.page_writes += dirty_.size();
  ++env_->stats_.commits;
  uint64_t written = dirty_.size();
  finish();
  env_->reclaim();
  return CommitInfo{txn_id_, written};
}

size_t Txn::entry_count() const { return entry_count(""); }

size_t Txn::entry_count(std::string_view db) const {
  const DbState* st = state_if_exists(db);
  return st ? st->entries : 0;
}

Page* Txn::readable(PageId id) {
  ++pages_touched_;
  ++env_->stats_.page_reads;
  return env_->page(id);
}

Page* Txn::shadow(PageId id) {
  Page* old = env_->page(id);
  if (old->born_txn == txn_id_) return old;  // already ours
  Page* fresh = env_->alloc_page(old->leaf, txn_id_);
  fresh->bytes = old->bytes;
  fresh->offs = old->offs;
  fresh->children = old->children;
  dirty_.push_back(fresh->id);
  freed_.push_back(id);
  ++pages_touched_;
  return fresh;
}

namespace {

// Binary searches over the cell indices of `p`, by key.
auto cells(const Page& p) { return std::views::iota(size_t{0}, p.size()); }
auto key_of(const Page& p) {
  return [&p](size_t i) { return p.key(i); };
}

// Routing: branch key(i) is the smallest key of children[i+1].
size_t route(const Page& p, std::string_view key) {
  auto all = cells(p);
  return std::ranges::upper_bound(all, key, {}, key_of(p)) - all.begin();
}

size_t leaf_pos(const Page& p, std::string_view key, bool& exact) {
  auto all = cells(p);
  size_t i = std::ranges::lower_bound(all, key, {}, key_of(p)) - all.begin();
  exact = i < p.size() && p.key(i) == key;
  return i;
}

}  // namespace

std::optional<std::string> Txn::get(std::string_view key) {
  return get("", key);
}

std::optional<std::string> Txn::get(std::string_view db,
                                    std::string_view key) {
  if (done_) throw std::logic_error("mdblite: txn finished");
  return get_in(state(db), key);
}

std::optional<std::string> Txn::get_in(DbState& st, std::string_view key) {
  if (st.root == kNoPage) return std::nullopt;
  Page* p = readable(st.root);
  while (!p->leaf) p = readable(p->children[route(*p, key)]);
  bool exact;
  size_t i = leaf_pos(*p, key, exact);
  if (!exact) return std::nullopt;
  if (p->overflow(i))
    return std::string(readable(p->overflow_ref(i))->payload());
  return std::string(p->value(i));
}

void Txn::put(std::string_view key, std::string_view value) {
  put("", key, value);
}

void Txn::put(std::string_view db, std::string_view key,
              std::string_view value) {
  if (done_ || !write_)
    throw std::logic_error("mdblite: put needs an active write txn");
  // Cell sizes and offsets are 32-bit. An image is at most its budget plus
  // two cells (one oversized cell and the one being inserted), so 1 GiB
  // keys keep every offset in range.
  if (key.size() > kMaxKey) throw std::length_error("mdblite: key too large");
  put_in(state(db), key, value);
}

void Txn::put_in(DbState& st, std::string_view key, std::string_view value) {
  const size_t psize = env_->opts_.page_size;
  const size_t capacity = psize - kPageHeader;
  const bool big = value.size() > psize / 4;

  const uint8_t flags = big ? kOverflowCell : 0;
  // What the leaf cell stores: the value itself, or the id of a fresh
  // overflow page holding it.
  char ref[sizeof(PageId)];
  auto cell_value = [&]() -> std::string_view {
    if (!big) return value;
    Page* ovf = env_->alloc_page(true, txn_id_);
    ovf->bytes.assign(value.begin(), value.end());
    dirty_.push_back(ovf->id);
    env_->stats_.page_writes += value.size() / psize;  // chain accounting
    std::memcpy(ref, &ovf->id, sizeof ref);
    return {ref, sizeof ref};
  };

  if (st.root == kNoPage) {
    Page* leaf = env_->alloc_page(true, txn_id_);
    dirty_.push_back(leaf->id);
    leaf->insert(0, key, cell_value(), flags);
    st.root = leaf->id;
    st.entries = 1;
    return;
  }

  struct SplitInfo {
    bool split = false;
    std::string sep;
    PageId right = kNoPage;
  };

  // Recursive COW insert.
  auto insert_rec = [&](auto&& self, PageId id) -> std::pair<PageId, SplitInfo> {
    Page* p = shadow(id);
    SplitInfo si;
    if (p->leaf) {
      bool exact;
      size_t i = leaf_pos(*p, key, exact);
      if (exact) {
        if (p->overflow(i)) freed_.push_back(p->overflow_ref(i));
        p->set_value(i, cell_value(), flags);
      } else {
        p->insert(i, key, cell_value(), flags);
        ++st.entries;
      }
      if (p->used() > capacity && p->size() > 1) {
        size_t mid = p->size() / 2;
        Page* right = env_->alloc_page(true, txn_id_);
        dirty_.push_back(right->id);
        right->append(*p, mid);
        p->truncate(mid);
        si = {true, std::string(right->key(0)), right->id};
      }
      return {p->id, si};
    }
    size_t idx = route(*p, key);
    auto [child_id, child_split] = self(self, p->children[idx]);
    p->children[idx] = child_id;
    if (child_split.split) {
      p->insert(idx, child_split.sep, {}, 0);
      p->children.insert(p->children.begin() + idx + 1, child_split.right);
      if (p->used() > capacity && p->size() > 1) {
        size_t mid = p->size() / 2;
        Page* right = env_->alloc_page(false, txn_id_);
        dirty_.push_back(right->id);
        std::string up(p->key(mid));
        right->append(*p, mid + 1);
        right->children.assign(p->children.begin() + mid + 1,
                               p->children.end());
        p->truncate(mid);
        p->children.resize(mid + 1);
        si = {true, std::move(up), right->id};
      }
    }
    return {p->id, si};
  };

  auto [new_root, split] = insert_rec(insert_rec, st.root);
  st.root = new_root;
  if (split.split) {
    Page* nr = env_->alloc_page(false, txn_id_);
    dirty_.push_back(nr->id);
    nr->insert(0, split.sep, {}, 0);
    nr->children = {st.root, split.right};
    st.root = nr->id;
  }
}

bool Txn::del(std::string_view key) { return del("", key); }

bool Txn::del(std::string_view db, std::string_view key) {
  if (done_ || !write_)
    throw std::logic_error("mdblite: del needs an active write txn");
  return del_in(state(db), key);
}

bool Txn::del_in(DbState& st, std::string_view key) {
  if (st.root == kNoPage) return false;
  const size_t psize = env_->opts_.page_size;
  const size_t capacity = psize - kPageHeader;

  bool removed = false;
  auto del_rec = [&](auto&& self, PageId id) -> PageId {
    Page* p = shadow(id);
    if (p->leaf) {
      bool exact;
      size_t i = leaf_pos(*p, key, exact);
      if (exact) {
        if (p->overflow(i)) freed_.push_back(p->overflow_ref(i));
        p->erase(i);
        removed = true;
        --st.entries;
      }
      return p->id;
    }
    size_t idx = route(*p, key);
    p->children[idx] = self(self, p->children[idx]);
    // Rebalance: merge an under-filled child into a sibling when the
    // combination fits (merge-only policy; under-filled pages are legal).
    // Peek with read-only pages FIRST — shadowing a page we end up not
    // modifying would push a still-referenced page onto the freelist.
    Page* child = env_->page(p->children[idx]);
    if (child->used() < capacity / 4 && p->children.size() > 1) {
      size_t li = idx > 0 ? idx - 1 : idx;  // merge (li, li+1)
      Page* lpeek = env_->page(p->children[li]);
      Page* rpeek = env_->page(p->children[li + 1]);
      if (lpeek->leaf == rpeek->leaf &&
          lpeek->used() + rpeek->used() <= capacity) {
        Page* left = shadow(p->children[li]);
        p->children[li] = left->id;
        Page* right = shadow(p->children[li + 1]);
        if (!left->leaf)  // pull the separator down
          left->insert(left->size(), p->key(li), {}, 0);
        left->append(*right, 0);
        left->children.insert(left->children.end(), right->children.begin(),
                              right->children.end());
        // `right` is our own shadow (never published): recycle directly.
        std::erase(dirty_, right->id);
        env_->reusable_.push_back(right->id);
        p->erase(li);
        p->children.erase(p->children.begin() + li + 1);
        p->children[li] = left->id;
      }
    }
    return p->id;
  };

  st.root = del_rec(del_rec, st.root);
  // Collapse a root branch with a single child.
  Page* r = env_->page(st.root);
  while (!r->leaf && r->children.size() == 1) {
    PageId only = r->children[0];
    std::erase(dirty_, r->id);
    env_->reusable_.push_back(r->id);
    st.root = only;
    r = env_->page(st.root);
  }
  if (r->leaf && r->size() == 0) {
    std::erase(dirty_, r->id);
    env_->reusable_.push_back(r->id);
    st.root = kNoPage;
  }
  return removed;
}

// ===========================================================================
// Cursor
// ===========================================================================

Cursor::Cursor(Txn& txn, std::string_view db) : txn_(txn) {
  const Txn::DbState* st = txn.state_if_exists(db);
  root_ = st ? st->root : kNoPage;
}

void Cursor::descend_left(PageId id) {
  Page* p = txn_.readable(id);
  stack_.push_back({id, 0});
  while (!p->leaf) {
    p = txn_.readable(p->children[0]);
    stack_.push_back({p->id, 0});
  }
  valid_ = p->size() > 0;
}

bool Cursor::first() {
  stack_.clear();
  valid_ = false;
  if (root_ == kNoPage) return false;
  descend_left(root_);
  return valid_;
}

bool Cursor::seek(std::string_view key) {
  stack_.clear();
  valid_ = false;
  if (root_ == kNoPage) return false;
  Page* p = txn_.readable(root_);
  stack_.push_back({p->id, 0});
  while (!p->leaf) {
    size_t idx = route(*p, key);
    stack_.back().index = idx;
    p = txn_.readable(p->children[idx]);
    stack_.push_back({p->id, 0});
  }
  bool exact;
  size_t i = leaf_pos(*p, key, exact);
  stack_.back().index = i;
  if (i < p->size()) {
    valid_ = true;
    return true;
  }
  return next();  // key is past this leaf; advance
}

bool Cursor::next() {
  if (stack_.empty()) return false;
  if (valid_) ++stack_.back().index;
  // Climb until a branch frame has a next child (or we are a valid leaf).
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    Page* p = txn_.env_->page(f.page);
    if (p->leaf) {
      if (f.index < p->size()) {
        valid_ = true;
        return true;
      }
      stack_.pop_back();
    } else {
      if (f.index + 1 < p->children.size()) {
        ++f.index;
        descend_left(p->children[f.index]);
        if (valid_) return true;
      } else {
        stack_.pop_back();
      }
    }
  }
  valid_ = false;
  return false;
}

std::string_view Cursor::key() const {
  const Frame& f = stack_.back();
  return txn_.env_->page(f.page)->key(f.index);
}

std::string_view Cursor::value() const {
  const Frame& f = stack_.back();
  const Page* p = txn_.env_->page(f.page);
  if (p->overflow(f.index))
    return txn_.env_->page(p->overflow_ref(f.index))->payload();
  return p->value(f.index);
}

}  // namespace hatrpc::kv
