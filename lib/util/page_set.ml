type t = { mutable bits : Bytes.t; mutable cardinal : int }

let create () = { bits = Bytes.make 512 '\000'; cardinal = 0 }

let grow t byte =
  let len = Bytes.length t.bits in
  let bits = Bytes.make (max (2 * len) (byte + 1)) '\000' in
  Bytes.blit t.bits 0 bits 0 len;
  t.bits <- bits

let add t page =
  if page < 0 then invalid_arg "Page_set.add: negative page";
  let byte = page lsr 3 in
  if byte >= Bytes.length t.bits then grow t byte;
  let b = Bytes.unsafe_get t.bits byte |> Char.code in
  let m = 1 lsl (page land 7) in
  if b land m = 0 then begin
    Bytes.unsafe_set t.bits byte (Char.unsafe_chr (b lor m));
    t.cardinal <- t.cardinal + 1
  end

let cardinal t = t.cardinal
