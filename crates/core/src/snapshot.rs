//! Copy-on-write building blocks for the MVCC snapshot store.
//!
//! [`crate::shared::SharedStore`] publishes the store as an immutable
//! `Arc<ObjectStore>` per version; readers pin one snapshot for a whole
//! request and never block behind writers. For that to be cheap the store's
//! big collections must clone in O(1) and diverge in O(touched), not
//! O(everything). These containers provide that:
//!
//! * [`CowMap`] — a persistent hash map: a 32-way hash-array-mapped trie
//!   (Bagwell, *Ideal Hash Trees*, 2001) of `Arc`-shared nodes. Cloning the
//!   map bumps one refcount (the root). A mutation after a clone copies only
//!   the nodes on the root-to-leaf path of the key it touches — O(log₃₂ n)
//!   nodes of at most 32 slots each — so every untouched node and value is
//!   shared structurally between every live version.
//! * [`CowSet`] — the same trie without values, for set-valued indexes.
//! * [`AppendLog`] — an append-only vector in `Arc`-shared chunks of
//!   [`CHUNK_CAP`]. Cloning bumps one refcount per chunk; appending to a
//!   shared tail copies at most one chunk.
//!
//! None of them is concurrent — they are plain single-writer values inside
//! the master store, made cheap to *clone* so publishing a version costs a
//! bounded amount of copying per touched key regardless of store size.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter;
use std::mem;
use std::slice;
use std::sync::Arc;

/// Entries per sealed [`AppendLog`] chunk.
pub const CHUNK_CAP: usize = 256;

/// Hash bits consumed per trie level (32-way nodes).
const BITS: u32 = 5;

/// The trie hash of a key.
///
/// A key whose `Hash` writes exactly one `u64` — a
/// [`crate::surrogate::Surrogate`] — is indexed by its own bits, low bits
/// first, so sequential surrogates spread evenly over the top levels.
/// Surrogates are issued by the store, never chosen by clients, and two
/// distinct ones never share a hash, so skipping the hash gives up no
/// flooding resistance: the worst a key can do is sit 13 levels deep.
/// Every other key (type names) goes through SipHash (`DefaultHasher`).
/// `Borrow`'s contract makes `k.borrow()` write the same sequence as `k`,
/// so borrowed lookups land where the owned key was filed.
fn key_hash<Q: Hash + ?Sized>(k: &Q) -> u64 {
    let mut h = KeyHasher::Empty;
    k.hash(&mut h);
    h.finish()
}

/// [`key_hash`]'s hasher: holds a lone `u64` write as is and falls back to
/// SipHash at the first write that is not one.
enum KeyHasher {
    Empty,
    Word(u64),
    Sip(DefaultHasher),
}

impl KeyHasher {
    fn sip(&mut self) -> &mut DefaultHasher {
        if !matches!(self, KeyHasher::Sip(_)) {
            let mut h = DefaultHasher::new();
            if let KeyHasher::Word(w) = *self {
                h.write_u64(w);
            }
            *self = KeyHasher::Sip(h);
        }
        match self {
            KeyHasher::Sip(h) => h,
            _ => unreachable!("just switched to SipHash"),
        }
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.sip().write(bytes);
    }

    fn write_u64(&mut self, w: u64) {
        match self {
            KeyHasher::Empty => *self = KeyHasher::Word(w),
            _ => self.sip().write_u64(w),
        }
    }

    fn finish(&self) -> u64 {
        match self {
            KeyHasher::Empty => 0,
            KeyHasher::Word(w) => *w,
            KeyHasher::Sip(h) => h.finish(),
        }
    }
}

/// The 5-bit slot position of `hash` at trie depth `shift / BITS`.
fn position(hash: u64, shift: u32) -> u32 {
    debug_assert!(shift < 64, "distinct hashes part by bit 63");
    ((hash >> shift) & 31) as u32
}

/// Index into a bitmap-compressed node of the slot for position bit `bit`.
fn index(bitmap: u32, bit: u32) -> usize {
    (bitmap & (bit - 1)).count_ones() as usize
}

/// One position of a trie node.
///
/// A node is one `Arc<[Slot]>` allocation sized to its popcount (plus
/// vacant room at the end if it grew while unshared, see [`grow`]); its
/// occupancy bitmap travels with the pointer to it (in the parent's
/// `Branch`, or in [`Trie`] for the root), so a lookup touches one
/// allocation per level.
#[derive(Default)]
enum Slot<K, P> {
    /// One key and its payload.
    Leaf(K, P),
    /// A child node: its occupancy bitmap and its slots in position order.
    Branch(u32, Arc<[Slot<K, P>]>),
    /// Two or more leaves whose keys have equal 64-bit hashes.
    Collision(Arc<[Slot<K, P>]>),
    /// What a slot leaves behind when it is moved out of a node being
    /// rebuilt; never reachable from a trie.
    #[default]
    Vacant,
}

impl<K: Clone, P: Clone> Clone for Slot<K, P> {
    fn clone(&self) -> Self {
        match self {
            Slot::Leaf(k, p) => Slot::Leaf(k.clone(), p.clone()),
            Slot::Branch(b, s) => Slot::Branch(*b, Arc::clone(s)),
            Slot::Collision(c) => Slot::Collision(Arc::clone(c)),
            Slot::Vacant => Slot::Vacant,
        }
    }
}

impl<K, P> Slot<K, P> {
    fn key(&self) -> Option<&K> {
        match self {
            Slot::Leaf(k, _) => Some(k),
            _ => None,
        }
    }

    /// The payload, if this is the leaf of `k`.
    fn payload_of<Q>(&self, k: &Q) -> Option<&P>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        match self {
            Slot::Leaf(k2, p) if k2.borrow() == k => Some(p),
            _ => None,
        }
    }

    /// The payload, mutably, if this is the leaf of `k`.
    fn payload_of_mut<Q>(&mut self, k: &Q) -> Option<&mut P>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        match self {
            Slot::Leaf(k2, p) if (*k2).borrow() == k => Some(p),
            _ => None,
        }
    }

    /// The payload of a slot known to be a leaf.
    fn payload_mut(&mut self) -> &mut P {
        match self {
            Slot::Leaf(_, p) => p,
            _ => unreachable!("not a leaf"),
        }
    }

    fn into_payload(self) -> P {
        match self {
            Slot::Leaf(_, p) => p,
            _ => unreachable!("not a leaf"),
        }
    }
}

/// The hash shared by a collision bucket's keys.
fn bucket_hash<K: Hash, P>(bucket: &[Slot<K, P>]) -> u64 {
    key_hash(bucket[0].key().expect("a bucket holds leaves"))
}

#[cfg(test)]
thread_local! {
    /// Trie nodes allocated (fresh or copied) by this thread.
    static NODE_ALLOCS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn count_node() {
    #[cfg(test)]
    NODE_ALLOCS.with(|n| n.set(n.get() + 1));
}

/// Inserts `item` at index `i` of a node whose first `count` slots are
/// occupied; the rest of it is vacant room.
///
/// A node no other version holds grows in place while it has room, and
/// otherwise moves its slots into a new one with twice the room (at most
/// `max` slots): a store being populated is a run of inserts into
/// unshared nodes, and doubling keeps each of them from reallocating. A
/// shared node is copied (its slots cloned, sharing what they point to) at
/// its exact new size.
fn grow<K: Clone, P: Clone>(
    node: &mut Arc<[Slot<K, P>]>,
    count: usize,
    i: usize,
    item: Slot<K, P>,
    max: usize,
) {
    *node = match Arc::get_mut(node) {
        Some(own) if count < own.len() => {
            own[i..=count].rotate_right(1);
            own[i] = item;
            return;
        }
        Some(own) => {
            count_node();
            let room = (2 * count).clamp(count + 1, max);
            let (front, back) = own.split_at_mut(i);
            front
                .iter_mut()
                .map(mem::take)
                .chain(iter::once(item))
                .chain(back.iter_mut().map(mem::take))
                .chain(iter::repeat_with(Slot::default).take(room - count - 1))
                .collect()
        }
        None => {
            count_node();
            node[..i]
                .iter()
                .cloned()
                .chain(iter::once(item))
                .chain(node[i..count].iter().cloned())
                .collect()
        }
    };
}

/// Replaces a node whose first `count` slots are occupied by an exactly
/// sized one without index `i`, and returns the removed slot; moves or
/// clones the rest like [`grow`].
fn shrink<K: Clone, P: Clone>(node: &mut Arc<[Slot<K, P>]>, count: usize, i: usize) -> Slot<K, P> {
    count_node();
    let (removed, rest) = match Arc::get_mut(node) {
        Some(own) => {
            let (front, back) = own[..count].split_at_mut(i);
            let removed = mem::take(&mut back[0]);
            let rest = front
                .iter_mut()
                .map(mem::take)
                .chain(back[1..].iter_mut().map(mem::take))
                .collect();
            (removed, rest)
        }
        None => {
            let rest = node[..i]
                .iter()
                .cloned()
                .chain(node[i + 1..count].iter().cloned())
                .collect();
            (node[i].clone(), rest)
        }
    };
    *node = rest;
    removed
}

/// Mutable access to `node`, copying it first if another version shares
/// it — the one step of path copying.
fn unshare<T: Clone>(node: &mut Arc<[T]>) -> &mut [T] {
    #[cfg(test)]
    if Arc::get_mut(node).is_none() {
        count_node();
    }
    Arc::make_mut(node)
}

/// The persistent trie behind [`CowMap`] and [`CowSet`]: keys `K` with
/// payloads `P` (cheap to clone) in the leaves.
///
/// Invariants: a node's first popcount-of-bitmap slots are occupied, in
/// position order, and any others are vacant room; a non-root `Branch`
/// holds two or more slots or a single `Branch`, so a lone key always sits
/// as high as its hash allows; a `Collision` is exactly sized and holds two
/// or more leaves of distinct keys and one hash.
struct Trie<K, P> {
    bitmap: u32,
    root: Arc<[Slot<K, P>]>,
    len: usize,
}

impl<K, P> Clone for Trie<K, P> {
    fn clone(&self) -> Self {
        Trie {
            bitmap: self.bitmap,
            root: Arc::clone(&self.root),
            len: self.len,
        }
    }
}

impl<K: Hash + Eq + Clone, P: Clone> Trie<K, P> {
    fn new() -> Self {
        count_node();
        Trie {
            bitmap: 0,
            root: Arc::new([]),
            len: 0,
        }
    }

    fn get<Q>(&self, hash: u64, k: &Q) -> Option<&P>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let (mut bitmap, mut slots) = (self.bitmap, &self.root);
        let mut shift = 0;
        loop {
            let bit = 1 << position(hash, shift);
            if bitmap & bit == 0 {
                return None;
            }
            match &slots[index(bitmap, bit)] {
                Slot::Branch(b, s) => (bitmap, slots) = (*b, s),
                Slot::Collision(c) => return c.iter().find_map(|s| s.payload_of(k)),
                leaf => return leaf.payload_of(k),
            }
            shift += BITS;
        }
    }

    /// Mutable payload of `k`, copying the path to it. Looks first, so a
    /// miss copies nothing.
    fn get_mut<Q>(&mut self, hash: u64, k: &Q) -> Option<&mut P>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.get(hash, k)?;
        find_mut(self.bitmap, &mut self.root, 0, hash, k)
    }

    /// Mutable payload of `k`, created with `make` if absent, in one walk
    /// that copies the path to it. Returns whether it was created.
    fn entry(&mut self, hash: u64, k: K, make: impl FnOnce() -> P) -> (&mut P, bool) {
        let (p, created) = entry(&mut self.bitmap, &mut self.root, 0, hash, k, make);
        self.len += usize::from(created);
        (p, created)
    }

    /// Insert or replace.
    fn insert(&mut self, hash: u64, k: K, p: P) {
        let mut p = Some(p);
        let (slot, _) = self.entry(hash, k, || p.take().expect("made once"));
        if let Some(p) = p {
            *slot = p;
        }
    }

    /// Remove `k`, copying the path to it. Looks first, so a miss copies
    /// nothing.
    fn remove<Q>(&mut self, hash: u64, k: &Q) -> Option<P>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.get(hash, k)?;
        let p = remove(&mut self.bitmap, &mut self.root, 0, hash, k);
        self.len -= 1;
        Some(p)
    }

    /// Every payload, mutably, after unsharing the whole trie.
    fn payloads_mut(&mut self) -> Vec<&mut P> {
        fn walk<'a, K: Clone, P: Clone>(
            slots: &'a mut Arc<[Slot<K, P>]>,
            out: &mut Vec<&'a mut P>,
        ) {
            for slot in unshare(slots) {
                match slot {
                    Slot::Leaf(_, p) => out.push(p),
                    Slot::Branch(_, s) | Slot::Collision(s) => walk(s, out),
                    Slot::Vacant => {}
                }
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&mut self.root, &mut out);
        out
    }
}

impl<K, P> Trie<K, P> {
    fn iter(&self) -> Iter<'_, K, P> {
        let mut stack = Vec::with_capacity(4);
        stack.push(self.root.iter());
        Iter { stack }
    }
}

fn find_mut<'a, K, P, Q>(
    bitmap: u32,
    slots: &'a mut Arc<[Slot<K, P>]>,
    shift: u32,
    hash: u64,
    k: &Q,
) -> Option<&'a mut P>
where
    K: Borrow<Q> + Clone,
    P: Clone,
    Q: Eq + ?Sized,
{
    let bit = 1 << position(hash, shift);
    if bitmap & bit == 0 {
        return None;
    }
    match &mut unshare(slots)[index(bitmap, bit)] {
        Slot::Branch(b, s) => find_mut(*b, s, shift + BITS, hash, k),
        Slot::Collision(c) => unshare(c).iter_mut().find_map(|s| s.payload_of_mut(k)),
        leaf => leaf.payload_of_mut(k),
    }
}

fn entry<'a, K: Hash + Eq + Clone, P: Clone>(
    bitmap: &'a mut u32,
    slots: &'a mut Arc<[Slot<K, P>]>,
    shift: u32,
    hash: u64,
    k: K,
    make: impl FnOnce() -> P,
) -> (&'a mut P, bool) {
    let bit = 1 << position(hash, shift);
    let i = index(*bitmap, bit);
    if *bitmap & bit == 0 {
        grow(
            slots,
            bitmap.count_ones() as usize,
            i,
            Slot::Leaf(k, make()),
            32,
        );
        *bitmap |= bit;
        return (unshare(slots)[i].payload_mut(), true);
    }
    let slot = &mut unshare(slots)[i];
    let occupant = match &*slot {
        Slot::Leaf(k2, _) if *k2 != k => Some(key_hash(k2)),
        Slot::Collision(c) => Some(bucket_hash(c)),
        _ => None,
    };
    match occupant {
        // Another hash holds `k`'s position: push the occupant one level
        // down and retry there, until the two hashes part.
        Some(h) if h != hash => {
            count_node();
            let down: Arc<[Slot<K, P>]> = Arc::from([mem::take(slot), Slot::Vacant]);
            *slot = Slot::Branch(1 << position(h, shift + BITS), down);
        }
        // Another key of the same hash: open a bucket for the two.
        Some(_) if matches!(slot, Slot::Leaf(..)) => {
            count_node();
            let bucket: Arc<[Slot<K, P>]> = Arc::from([mem::take(slot)]);
            *slot = Slot::Collision(bucket);
        }
        _ => {}
    }
    match slot {
        Slot::Branch(b, s) => entry(b, s, shift + BITS, hash, k, make),
        Slot::Collision(c) => {
            if let Some(j) = c.iter().position(|s| s.key() == Some(&k)) {
                return (unshare(c)[j].payload_mut(), false);
            }
            let end = c.len();
            grow(c, end, end, Slot::Leaf(k, make()), end + 1);
            (unshare(c)[end].payload_mut(), true)
        }
        leaf => (leaf.payload_mut(), false),
    }
}

/// Removes `k`, which must be present below this node.
fn remove<K, P, Q>(
    bitmap: &mut u32,
    slots: &mut Arc<[Slot<K, P>]>,
    shift: u32,
    hash: u64,
    k: &Q,
) -> P
where
    K: Borrow<Q> + Clone,
    P: Clone,
    Q: Eq + ?Sized,
{
    let bit = 1 << position(hash, shift);
    let i = index(*bitmap, bit);
    if let Slot::Leaf(..) = slots[i] {
        let count = bitmap.count_ones() as usize;
        *bitmap &= !bit;
        return shrink(slots, count, i).into_payload();
    }
    let slot = &mut unshare(slots)[i];
    let (p, rest, left) = match slot {
        Slot::Branch(b, s) => {
            let p = remove(b, s, shift + BITS, hash, k);
            (p, s, b.count_ones() as usize)
        }
        Slot::Collision(c) => {
            let (count, j) = (c.len(), c.iter().position(|s| s.payload_of(k).is_some()));
            let p = shrink(c, count, j.expect("present")).into_payload();
            (p, c, count - 1)
        }
        _ => unreachable!("a trie holds no vacant slot"),
    };
    // A node left with one key (or one bucket) collapses into its slot.
    if left == 1 && !matches!(rest[0], Slot::Branch(..)) {
        *slot = mem::take(&mut unshare(rest)[0]);
    }
    p
}

/// Depth-first iterator over a [`Trie`]'s keys and payloads.
struct Iter<'a, K, P> {
    stack: Vec<slice::Iter<'a, Slot<K, P>>>,
}

impl<'a, K, P> Iterator for Iter<'a, K, P> {
    type Item = (&'a K, &'a P);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stack.last_mut()?.next() {
                None => {
                    self.stack.pop();
                }
                Some(Slot::Leaf(k, p)) => return Some((k, p)),
                Some(Slot::Branch(_, s) | Slot::Collision(s)) => self.stack.push(s.iter()),
                Some(Slot::Vacant) => {}
            }
        }
    }
}

/// A persistent hash map: a 32-way trie of `Arc`-shared nodes with each
/// value in its own `Arc`.
///
/// `clone()` is O(1). A mutation after a clone copies the O(log₃₂ n) nodes
/// on its key's path and (for `get_mut`/`entry_or_default`) the value; a
/// lookup or mutation that misses copies nothing. Lookup cost is one
/// bitmap test and one node per level — four levels at 10⁶ surrogates.
#[derive(Clone)]
pub struct CowMap<K, V> {
    trie: Trie<K, Arc<V>>,
}

impl<K: Hash + Eq + Clone, V: Clone> Default for CowMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for CowMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.trie.iter().map(|(k, v)| (k, &**v)))
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> CowMap<K, V> {
    /// Empty map.
    pub fn new() -> Self {
        CowMap { trie: Trie::new() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.trie.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.trie.len == 0
    }

    /// Shared lookup.
    pub fn get<Q>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.trie.get(key_hash(k), k).map(|a| &**a)
    }

    /// Is `k` present?
    pub fn contains_key<Q>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(k).is_some()
    }

    /// Mutable lookup. Unshares the path to `k` and (separately) the value
    /// — both copies are skipped when this map is the only owner, and a
    /// miss copies nothing.
    pub fn get_mut<Q>(&mut self, k: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.trie.get_mut(key_hash(k), k).map(Arc::make_mut)
    }

    /// Insert, replacing any previous value.
    pub fn insert(&mut self, k: K, v: V) {
        self.trie.insert(key_hash(&k), k, Arc::new(v));
    }

    /// Remove and return the value (unsharing it if other versions still
    /// hold it).
    pub fn remove<Q>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let a = self.trie.remove(key_hash(k), k)?;
        Some(Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
    }

    /// Mutable reference to `k`'s value, inserting `V::default()` first if
    /// absent (the `entry().or_default()` idiom), in one walk.
    pub fn entry_or_default(&mut self, k: K) -> &mut V
    where
        V: Default,
    {
        let (a, _) = self.trie.entry(key_hash(&k), k, || Arc::new(V::default()));
        Arc::make_mut(a)
    }

    /// Iterate `(&key, &value)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.trie.iter().map(|(k, v)| (k, &**v))
    }

    /// Iterate keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.trie.iter().map(|(k, _)| k)
    }

    /// Iterate values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.trie.iter().map(|(_, v)| &**v)
    }

    /// Unshare and iterate every value mutably. Copies every node and
    /// value still shared with another version — use only on cold paths.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.trie.payloads_mut().into_iter().map(Arc::make_mut)
    }
}

/// A persistent hash set: [`CowMap`]'s trie with no values, so a member
/// costs one slot and an insert or remove after a clone copies one path.
#[derive(Clone)]
pub struct CowSet<K> {
    trie: Trie<K, ()>,
}

impl<K: Hash + Eq + Clone> Default for CowSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone> CowSet<K> {
    /// Empty set.
    pub fn new() -> Self {
        CowSet { trie: Trie::new() }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.trie.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.trie.len == 0
    }

    /// Is `k` a member?
    pub fn contains<Q>(&self, k: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.trie.get(key_hash(k), k).is_some()
    }

    /// Add `k`; returns whether it was new.
    pub fn insert(&mut self, k: K) -> bool {
        self.trie.entry(key_hash(&k), k, || ()).1
    }

    /// Drop `k`; returns whether it was a member. A miss copies nothing.
    pub fn remove<Q>(&mut self, k: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.trie.remove(key_hash(k), k).is_some()
    }

    /// Iterate members in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &K> + '_ {
        self.trie.iter().map(|(k, _)| k)
    }
}

/// An append-only persistent vector in `Arc`-shared chunks.
///
/// Every chunk except possibly the last holds exactly [`CHUNK_CAP`] items,
/// so random access is index arithmetic. `clone()` is O(chunks); a push onto
/// a tail shared with an older version copies at most [`CHUNK_CAP`] items.
#[derive(Clone, Debug)]
pub struct AppendLog<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T: Clone> Default for AppendLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> AppendLog<T> {
    /// Empty log.
    pub fn new() -> Self {
        AppendLog {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one item, unsharing (copying) the tail chunk if an older
    /// version still holds it.
    pub fn push(&mut self, item: T) {
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK_CAP => match Arc::get_mut(tail) {
                Some(v) => v.push(item),
                None => {
                    let mut copy = Vec::with_capacity(CHUNK_CAP);
                    copy.extend(tail.iter().cloned());
                    copy.push(item);
                    *tail = Arc::new(copy);
                }
            },
            _ => {
                let mut v = Vec::with_capacity(CHUNK_CAP);
                v.push(item);
                self.chunks.push(Arc::new(v));
            }
        }
        self.len += 1;
    }

    /// Random access.
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        self.chunks[i / CHUNK_CAP].get(i % CHUNK_CAP)
    }

    /// Last item.
    pub fn last(&self) -> Option<&T> {
        self.len.checked_sub(1).and_then(|i| self.get(i))
    }

    /// Iterate in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// First index at which `pred` is false, assuming the log is partitioned
    /// (all `true` items precede all `false` items) — same contract as
    /// `slice::partition_point`.
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid).expect("mid < len")) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Clone out the suffix starting at index `from`.
    pub fn tail_from(&self, from: usize) -> Vec<T> {
        (from..self.len)
            .map(|i| self.get(i).expect("index < len").clone())
            .collect()
    }
}

#[cfg(test)]
impl<K: Hash + Eq + Clone, P: Clone> Trie<K, P> {
    /// Asserts the trie invariants and that every key sits on its hash's
    /// path; returns the depth in nodes of the deepest path.
    fn check(&self) -> usize {
        fn node<K: Hash + Eq, P>(
            bitmap: u32,
            slots: &[Slot<K, P>],
            shift: u32,
            prefix: u64,
            keys: &mut usize,
        ) -> usize {
            let count = bitmap.count_ones() as usize;
            assert!(slots.len() >= count, "popcount");
            let (slots, room) = slots.split_at(count);
            assert!(
                room.iter().all(|s| matches!(s, Slot::Vacant)),
                "room is vacant"
            );
            if shift > 0 {
                assert!(
                    slots.len() >= 2 || matches!(slots[0], Slot::Branch(..)),
                    "a lone key must collapse into its parent"
                );
            }
            let mask = u64::MAX >> 64u32.saturating_sub(shift + BITS);
            let positions = (0..32u64).filter(|p| bitmap & (1 << p) != 0);
            let mut depth = 1;
            for (pos, slot) in positions.zip(slots) {
                let prefix = prefix | pos << shift;
                match slot {
                    Slot::Leaf(k, _) => {
                        assert_eq!(key_hash(k) & mask, prefix, "leaf off its path");
                        *keys += 1;
                    }
                    Slot::Branch(b, s) => {
                        depth = depth.max(1 + node(*b, s, shift + BITS, prefix, keys));
                    }
                    Slot::Collision(c) => {
                        assert!(c.len() >= 2, "a bucket holds two or more keys");
                        let h = bucket_hash(c);
                        assert_eq!(h & mask, prefix, "bucket off its path");
                        for (i, slot) in c.iter().enumerate() {
                            let k = slot.key().expect("a bucket holds leaves");
                            assert_eq!(key_hash(k), h, "bucket mixes hashes");
                            assert!(c[..i].iter().all(|s| s.key() != Some(k)), "duplicate key");
                        }
                        *keys += c.len();
                    }
                    Slot::Vacant => panic!("vacant slot in a trie"),
                }
            }
            depth
        }
        let mut keys = 0;
        let depth = node(self.bitmap, &self.root, 0, 0, &mut keys);
        assert_eq!(keys, self.len, "len");
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::Surrogate;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn node_allocs() -> usize {
        NODE_ALLOCS.with(|n| n.get())
    }

    #[test]
    fn cowmap_basic_ops() {
        let mut m: CowMap<u64, String> = CowMap::new();
        assert!(m.is_empty());
        m.insert(1, "a".into());
        m.insert(2, "b".into());
        m.insert(1, "a2".into());
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1).map(String::as_str), Some("a2"));
        assert!(m.contains_key(&2));
        assert_eq!(m.remove(&2), Some("b".to_string()));
        assert_eq!(m.remove(&2), None);
        assert_eq!(m.len(), 1);
        *m.get_mut(&1).unwrap() = "a3".into();
        assert_eq!(m.get(&1).map(String::as_str), Some("a3"));
        assert_eq!(m.iter().count(), 1);
    }

    #[test]
    fn cowmap_clone_is_isolated_both_ways() {
        let mut a: CowMap<u64, Vec<u64>> = CowMap::new();
        for i in 0..100 {
            a.insert(i, vec![i]);
        }
        let b = a.clone();
        // Mutations on `a` after the clone are invisible in `b`.
        a.insert(7, vec![700]);
        a.remove(&8).unwrap();
        a.entry_or_default(9).push(900);
        a.entry_or_default(1000).push(1);
        assert_eq!(b.get(&7), Some(&vec![7]));
        assert_eq!(b.get(&8), Some(&vec![8]));
        assert_eq!(b.get(&9), Some(&vec![9]));
        assert!(!b.contains_key(&1000));
        assert_eq!(b.len(), 100);
        assert_eq!(a.get(&7), Some(&vec![700]));
        assert_eq!(a.get(&9), Some(&vec![9, 900]));
        assert_eq!(a.len(), 100, "one removed, one inserted");
        // Untouched entries still point at the same allocation (structural
        // sharing): compare addresses through the shared reference.
        assert!(std::ptr::eq(a.get(&50).unwrap(), b.get(&50).unwrap()));
    }

    #[test]
    fn cowmap_values_mut_unshares() {
        let mut a: CowMap<u64, Vec<u64>> = CowMap::new();
        a.insert(1, vec![1]);
        a.insert(2, vec![2]);
        let b = a.clone();
        for v in a.values_mut() {
            v.push(99);
        }
        assert!(a.values().all(|v| v.ends_with(&[99])));
        assert!(b.values().all(|v| v.len() == 1));
    }

    #[test]
    fn cowset_tracks_members_and_shares_with_clones() {
        let mut a: CowSet<Surrogate> = CowSet::new();
        assert!(a.insert(Surrogate(3)));
        assert!(!a.insert(Surrogate(3)));
        assert!(a.insert(Surrogate(3 + 32)));
        let b = a.clone();
        assert!(a.remove(&Surrogate(3)));
        assert!(!a.remove(&Surrogate(3)));
        assert!(!a.contains(&Surrogate(3)) && a.contains(&Surrogate(35)));
        assert_eq!((a.len(), b.len()), (1, 2));
        let mut members: Vec<_> = b.iter().copied().collect();
        members.sort();
        assert_eq!(members, vec![Surrogate(3), Surrogate(35)]);
        assert_eq!(a.trie.check(), 1, "the survivor collapsed to the root");
    }

    #[test]
    fn surrogates_index_by_their_own_bits_and_strings_by_siphash() {
        assert_eq!(key_hash(&Surrogate(0x1234)), 0x1234);
        assert_eq!(key_hash("Part"), key_hash(&String::from("Part")));
        assert_ne!(key_hash("Part"), key_hash("Assembly"));
        // A slot is a tag plus two words, whichever variant it holds.
        assert_eq!(std::mem::size_of::<Slot<Surrogate, Arc<u64>>>(), 24);
    }

    /// A key whose `Hash` writes one of two constants sharing their low 35
    /// bits: all keys land in two collision buckets seven levels apart.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Clash(u64);

    impl Hash for Clash {
        fn hash<H: Hasher>(&self, h: &mut H) {
            h.write_u64(if self.0.is_multiple_of(4) {
                1 << 35 | 3
            } else {
                3
            });
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(usize, u32),
        Remove(usize),
        GetMut(usize, u32),
        Entry(usize, u32),
        Keep,
        Release(usize),
    }

    fn ops() -> BoxedStrategy<Vec<Op>> {
        let op = (0u8..12, 0usize..64, any::<u32>()).prop_map(|(kind, key, v)| match kind {
            0..=3 => Op::Insert(key, v),
            4..=5 => Op::Remove(key),
            6 => Op::GetMut(key, v),
            7..=8 => Op::Entry(key, v),
            9 => Op::Keep,
            _ => Op::Release(key),
        });
        proptest::collection::vec(op, 0..160)
    }

    /// 64 `u64` keys: small ones, multiples of 32² and 32³ (deep splits),
    /// keys sharing their low 20 bits and keys differing only in bit 60+.
    fn u64_pool() -> Vec<u64> {
        let mut pool: Vec<u64> = (0..16).collect();
        pool.extend((1..13).map(|j| j * 1024));
        pool.extend((1..13).map(|j| j * 32 * 32 * 32));
        pool.extend((1..13).map(|j| j << 20 | 7));
        pool.extend((1..12).map(|j| j << 60 | 7));
        pool.push(u64::MAX);
        assert_eq!(pool.len(), 64);
        pool
    }

    type Model<K> = HashMap<K, Vec<u32>>;
    type Kept<K> = Vec<(CowMap<K, Vec<u32>>, Model<K>)>;

    fn agrees<K: Hash + Eq + Clone + fmt::Debug>(
        map: &CowMap<K, Vec<u32>>,
        model: &Model<K>,
        pool: &[K],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(map.len(), model.len());
        for k in pool {
            prop_assert_eq!(map.get(k), model.get(k), "get {:?}", k);
        }
        let listed: Model<K> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(map.iter().count(), listed.len(), "iter repeats a key");
        prop_assert_eq!(&listed, model);
        map.trie.check();
        Ok(())
    }

    /// Replays `ops` against a `HashMap` model, keeping and dropping clones
    /// along the way; after every step the live map and every kept clone
    /// must agree with their models.
    fn replay<K: Hash + Eq + Clone + fmt::Debug>(
        pool: &[K],
        ops: &[Op],
    ) -> Result<(), TestCaseError> {
        let mut map: CowMap<K, Vec<u32>> = CowMap::new();
        let mut model: Model<K> = HashMap::new();
        let mut kept: Kept<K> = Vec::new();
        for op in ops {
            match *op {
                Op::Insert(i, v) => {
                    map.insert(pool[i].clone(), vec![v]);
                    model.insert(pool[i].clone(), vec![v]);
                }
                Op::Remove(i) => {
                    let (root, before) = (Arc::clone(&map.trie.root), node_allocs());
                    let removed = map.remove(&pool[i]);
                    if removed.is_none() {
                        prop_assert!(Arc::ptr_eq(&root, &map.trie.root), "a miss kept the root");
                        prop_assert_eq!(node_allocs(), before, "a miss copies no node");
                    }
                    prop_assert_eq!(removed, model.remove(&pool[i]));
                }
                Op::GetMut(i, v) => {
                    let (root, before) = (Arc::clone(&map.trie.root), node_allocs());
                    match map.get_mut(&pool[i]) {
                        Some(x) => x.push(v),
                        None => {
                            prop_assert!(
                                Arc::ptr_eq(&root, &map.trie.root),
                                "a miss kept the root"
                            );
                            prop_assert_eq!(node_allocs(), before, "a miss copies no node");
                        }
                    }
                    if let Some(x) = model.get_mut(&pool[i]) {
                        x.push(v);
                    }
                }
                Op::Entry(i, v) => {
                    map.entry_or_default(pool[i].clone()).push(v);
                    model.entry(pool[i].clone()).or_default().push(v);
                }
                Op::Keep => kept.push((map.clone(), model.clone())),
                Op::Release(i) => {
                    if !kept.is_empty() {
                        kept.remove(i % kept.len());
                    }
                }
            }
            agrees(&map, &model, pool)?;
            for (m, model) in &kept {
                agrees(m, model, pool)?;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn cowmap_matches_a_hashmap_model_with_u64_keys(ops in ops()) {
            replay(&u64_pool(), &ops)?;
        }

        #[test]
        fn cowmap_matches_a_hashmap_model_with_string_keys(ops in ops()) {
            let pool: Vec<String> = (0..64).map(|i| format!("Type{i}")).collect();
            replay(&pool, &ops)?;
        }

        #[test]
        fn cowmap_matches_a_hashmap_model_with_colliding_keys(ops in ops()) {
            let pool: Vec<Clash> = (0..64).map(Clash).collect();
            replay(&pool, &ops)?;
        }
    }

    #[test]
    fn a_write_after_clone_copies_one_path_and_shares_the_rest() {
        const N: u64 = 100_000;
        let mut a: CowMap<u64, u64> = CowMap::new();
        for k in 0..N {
            a.insert(k, k);
        }
        let depth = a.trie.check();
        let b = a.clone();
        let before = node_allocs();
        *a.get_mut(&4242).unwrap() += 1;
        let copied = node_allocs() - before;
        assert!(copied <= depth, "copied {copied} nodes, depth {depth}");
        assert_eq!((a.get(&4242), b.get(&4242)), (Some(&4243), Some(&4242)));
        for k in (0..N).filter(|&k| k != 4242) {
            assert!(std::ptr::eq(a.get(&k).unwrap(), b.get(&k).unwrap()), "{k}");
        }
        // Misses leave both maps sharing everything.
        let (a_root, before) = (Arc::clone(&a.trie.root), node_allocs());
        assert!(a.get_mut(&(N + 1)).is_none());
        assert!(a.remove(&(N + 2)).is_none());
        assert!(a.remove(&(4242 + 32 * 32 * 32 * 32 * 32)).is_none());
        assert_eq!(node_allocs(), before, "a miss copies no node");
        assert!(Arc::ptr_eq(&a_root, &a.trie.root));
        a.trie.check();
        b.trie.check();
    }

    #[test]
    fn appendlog_push_get_iter_across_chunks() {
        let mut log = AppendLog::new();
        let n = CHUNK_CAP * 2 + 10;
        for i in 0..n {
            log.push(i);
        }
        assert_eq!(log.len(), n);
        assert_eq!(log.get(0), Some(&0));
        assert_eq!(log.get(CHUNK_CAP), Some(&CHUNK_CAP));
        assert_eq!(log.get(n - 1), Some(&(n - 1)));
        assert_eq!(log.get(n), None);
        assert_eq!(log.last(), Some(&(n - 1)));
        let all: Vec<usize> = log.iter().copied().collect();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
        assert_eq!(log.partition_point(|&x| x < 300), 300);
        assert_eq!(log.tail_from(n - 3), vec![n - 3, n - 2, n - 1]);
    }

    #[test]
    fn appendlog_clone_shares_then_diverges() {
        let mut a = AppendLog::new();
        for i in 0..CHUNK_CAP + 5 {
            a.push(i);
        }
        let b = a.clone();
        a.push(777);
        assert_eq!(a.len(), CHUNK_CAP + 6);
        assert_eq!(b.len(), CHUNK_CAP + 5);
        assert_eq!(b.get(CHUNK_CAP + 5), None);
        assert_eq!(a.last(), Some(&777));
        // The sealed first chunk stays shared between the two versions.
        assert!(std::ptr::eq(a.get(0).unwrap(), b.get(0).unwrap()));
    }
}
