(* Slots [0, size) hold the pages; a full set recycles its LRU slot, so
   slots stay dense.  [prev]/[next] thread them MRU ([head]) to LRU
   ([tail]).  [index] is a power-of-two linear-probing table of slot
   numbers, at most half full.  [nil] ends lists and marks empty
   buckets. *)

type t = {
  capacity : int;
  mutable size : int;
  mutable pages : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable head : int;
  mutable tail : int;
  mutable index : int array;
  mutable shift : int; (* [Sys.int_size - log2 (Array.length index)] *)
}

let nil = -1

(* Fibonacci hashing: an odd multiplier near 2^62/phi, top bits kept. *)
let home t page = (page * 0x278DDE6E5FD29F05) lsr t.shift

let make_index t slots =
  let rec bits b = if 1 lsl b >= 2 * slots then b else bits (b + 1) in
  let b = bits 1 in
  t.index <- Array.make (1 lsl b) nil;
  t.shift <- Sys.int_size - b

let create ~capacity =
  if capacity <= 0 then invalid_arg "Page_lru.create: capacity must be positive";
  let slots = min capacity 16 in
  let t =
    { capacity; size = 0; pages = Array.make slots nil;
      prev = Array.make slots nil; next = Array.make slots nil;
      head = nil; tail = nil; index = [||]; shift = 0 }
  in
  make_index t slots;
  t

let size t = t.size

(* The bucket holding [page]'s slot, or the empty bucket ending its probe
   run (where it would go). *)
let rec probe index (pages : int array) (page : int) b =
  let s = index.(b) in
  if s = nil || pages.(s) = page then b
  else probe index pages page ((b + 1) land (Array.length index - 1))

let find t page = probe t.index t.pages page (home t page)
let mem t page = t.index.(find t page) <> nil

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- nil;
  t.next.(s) <- t.head;
  if t.head = nil then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

(* Backward-shift deletion of bucket [hole]: walk the rest of its probe
   run, pulling back each entry whose home does not lie cyclically in
   (hole, j] — the entries the hole would cut off from their home. *)
let rec shift_back t mask hole j =
  let j = (j + 1) land mask in
  let s = t.index.(j) in
  if s = nil then t.index.(hole) <- nil
  else if (j - home t t.pages.(s)) land mask >= (j - hole) land mask then begin
    t.index.(hole) <- s;
    shift_back t mask j j
  end
  else shift_back t mask hole j

(* Double the slot arrays, never past [capacity], and rehash. *)
let grow t =
  let len = Array.length t.pages in
  let extend a = Array.append a (Array.make (min t.capacity (2 * len) - len) nil) in
  t.pages <- extend t.pages;
  t.prev <- extend t.prev;
  t.next <- extend t.next;
  make_index t (Array.length t.pages);
  for s = 0 to t.size - 1 do
    t.index.(find t t.pages.(s)) <- s
  done

(* Looks the bucket up afresh: growing rehashes and evicting shifts probe
   runs. *)
let link t s page =
  t.pages.(s) <- page;
  t.index.(find t page) <- s;
  push_front t s

let touch t page =
  let s = t.index.(find t page) in
  if s <> nil then begin
    if s <> t.head then begin
      unlink t s;
      push_front t s
    end;
    true
  end
  else begin
    if t.size = t.capacity then begin
      let victim = t.tail in
      let hole = find t t.pages.(victim) in
      unlink t victim;
      shift_back t (Array.length t.index - 1) hole hole;
      link t victim page
    end
    else begin
      if t.size = Array.length t.pages then grow t;
      t.size <- t.size + 1;
      link t (t.size - 1) page
    end;
    false
  end

let clear t =
  t.size <- 0;
  t.head <- nil;
  t.tail <- nil;
  Array.fill t.index 0 (Array.length t.index) nil

let to_list t =
  let rec go s acc = if s = nil then acc else go t.prev.(s) (t.pages.(s) :: acc) in
  go t.tail []
