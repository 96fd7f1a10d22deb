(* Damage to a saved text file, for fuzzing the loaders at the file
   boundary: cut it short, overwrite bytes (biased toward characters
   that change how a line parses), replace a number with an edge value,
   or drop, repeat or swap lines. *)

type t =
  | Truncate of int
  | Overwrite of (int * char) list
  | Renumber of int * string
  | Drop_line of int
  | Repeat_line of int
  | Swap_lines of int * int

let gen =
  let byte =
    QCheck2.Gen.(
      oneof [ char; oneofl [ '-'; '0'; '9'; ' '; '\n'; 'x'; '.'; '#' ] ])
  in
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Truncate n) nat;
        map (fun l -> Overwrite l) (list_size (int_range 1 6) (pair nat byte));
        map2
          (fun i v -> Renumber (i, v))
          nat
          (oneofl
             [
               "-1"; "0"; "1"; "16"; string_of_int max_int;
               "99999999999999999999"; "";
             ]);
        map (fun i -> Drop_line i) nat;
        map (fun i -> Repeat_line i) nat;
        map2 (fun i j -> Swap_lines (i, j)) nat nat;
      ])

let print = function
  | Truncate n -> Printf.sprintf "Truncate %d" n
  | Overwrite l ->
    Printf.sprintf "Overwrite [%s]"
      (String.concat "; " (List.map (fun (i, c) -> Printf.sprintf "%d,%C" i c) l))
  | Renumber (i, v) -> Printf.sprintf "Renumber (%d, %S)" i v
  | Drop_line i -> Printf.sprintf "Drop_line %d" i
  | Repeat_line i -> Printf.sprintf "Repeat_line %d" i
  | Swap_lines (i, j) -> Printf.sprintf "Swap_lines (%d, %d)" i j

let apply m s =
  let lines = String.split_on_char '\n' s in
  let nth i = i mod List.length lines in
  let join = String.concat "\n" in
  match m with
  | Truncate n -> String.sub s 0 (n mod (String.length s + 1))
  | Overwrite l ->
    let b = Bytes.of_string s in
    if Bytes.length b > 0 then
      List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) l;
    Bytes.to_string b
  | Renumber (i, v) ->
    (* The [i]-th run of digits (mod their count) becomes [v]. *)
    let digit c = c >= '0' && c <= '9' in
    let runs = ref [] in
    String.iteri
      (fun j c ->
        if digit c && (j = 0 || not (digit s.[j - 1])) then begin
          let e = ref j in
          while !e < String.length s && digit s.[!e] do incr e done;
          runs := (j, !e) :: !runs
        end)
      s;
    let runs = Array.of_list (List.rev !runs) in
    if runs = [||] then s
    else
      let start, stop = runs.(i mod Array.length runs) in
      String.sub s 0 start ^ v ^ String.sub s stop (String.length s - stop)
  | Drop_line i -> join (List.filteri (fun j _ -> j <> nth i) lines)
  | Repeat_line i ->
    join
      (List.concat
         (List.mapi (fun j l -> if j = nth i then [ l; l ] else [ l ]) lines))
  | Swap_lines (i, j) ->
    let a = Array.of_list lines in
    let i = nth i and j = nth j in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    join (Array.to_list a)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* [save path] writes a valid file; damage it with [m] and hand the
   path to [load].  [Some v] when the loader accepted the damaged file,
   [None] when it rejected it with [Failure]; any other exception
   escapes and fails the property. *)
let load_damaged ~save ~load m =
  let path = Filename.temp_file "sgx_preload_fuzz" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      save path;
      write_file path (apply m (read_file path));
      match load path with v -> Some v | exception Failure _ -> None)
