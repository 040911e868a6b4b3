(* The update log against a model.  Random appends, resets, trims and
   clears over four channels whose reset and trim rates differ by
   powers of ten, so one log grows past its small blocks into 4 KB
   ones, one slides (trims drop blocks at its head while its tail links
   more) and the others keep restarting in their first blocks.  Gaps
   are drawn so that records take the one-byte form, the general form
   and both 8-byte escapes; one-byte runs fill blocks up to their end
   mark, wider records end them early.  After every step the touched
   channel's records, count, last id and sntid, watermark and live
   sntupdates match the model, the ids [write_ids] encodes for a
   release match, and the log passes its audit. *)

module Sm = Prng.Splitmix
module U = Oat.Ulog

let steps = 10_000

(* A channel's model: its records are [ids]/[snts] from [hd] to [tl]
   ([snt] 0: not forwarded); indices only grow, so [steps] cells
   suffice. *)
type chan = {
  ids : int array;
  snts : int array;
  mutable hd : int;
  mutable tl : int;
  mutable id : int;
  mutable snt : int;
  mutable mark : int;
}

let channels = 4
(* Per step on the channel.  Channel 0 grows into 4 KB blocks;
   channel 1's frequent trims drop blocks at its head while its tail
   links new ones, so its block table fills from the middle. *)
let resets = [| 0.0001; 0.0002; 0.01; 0.1 |]
let trims = [| 0.0001; 0.02; 0.01; 0.1 |]

let gap rng ~small ~mid =
  let r = Sm.float rng in
  if r < small then 1
  else if r < small +. mid then 2 + Sm.int rng 253
  else 255 + Sm.int rng (1 lsl 40)

let check_chan log s c =
  let k = ref c.hd and live = ref 0 in
  U.iter log s (fun id snt ->
      if !k = c.tl || c.ids.(!k) <> id || c.snts.(!k) <> snt then
        Alcotest.failf "slot %d: record %d is (%d,%d)" s (!k - c.hd) id snt;
      incr k;
      if snt > c.mark then incr live);
  let n = c.tl - c.hd in
  if !k <> c.tl then
    Alcotest.failf "slot %d: log holds %d records, model %d" s (!k - c.hd) n;
  Alcotest.(check int) "count" n (U.count log s);
  Alcotest.(check (pair int int)) "last id, sntid" (c.id, c.snt)
    (U.last_id log s, U.last_snt log s);
  Alcotest.(check int) "watermark" c.mark (U.mark log s);
  let model_live = ref 0 in
  for j = c.hd to c.tl - 1 do
    if c.snts.(j) > c.mark then incr model_live
  done;
  Alcotest.(check int) "live sntupdates" !model_live !live;
  let b = Bytes.create (8 * n) in
  U.write_ids log s b 0;
  for j = 0 to n - 1 do
    if Simul.Frame.get_int b (8 * j) <> c.ids.(c.hd + j) then
      Alcotest.failf "slot %d: write_ids wrote %d for id %d" s
        (Simul.Frame.get_int b (8 * j)) c.ids.(c.hd + j)
  done;
  U.audit log s

let test_model () =
  let rng = Sm.create 2113 in
  let log = U.create channels in
  let model =
    Array.init channels (fun _ ->
        {
          ids = Array.make steps 0;
          snts = Array.make steps 0;
          hd = 0;
          tl = 0;
          id = 0;
          snt = 0;
          mark = 0;
        })
  in
  let forms = Array.make 4 0 and longest = ref 0 in
  for _ = 1 to steps do
    let s = if Sm.bernoulli rng 0.5 then 0 else 1 + Sm.int rng (channels - 1) in
    let c = model.(s) in
    let r = Sm.float rng in
    if r < resets.(s) then begin
      U.reset log s;
      c.hd <- c.tl;
      c.mark <- c.snt
    end
    else if r < resets.(s) +. trims.(s) && c.mark < c.snt then begin
      (* a released minimum the mechanism would trim at *)
      let m = c.mark + 1 + Sm.int rng (c.snt - c.mark) in
      U.trim log s m;
      while c.snts.(c.hd) < m do
        c.hd <- c.hd + 1
      done;
      c.mark <- c.snts.(c.hd)
    end
    else if r < (1.2 *. resets.(s)) +. trims.(s) then begin
      U.clear log s;
      c.hd <- c.tl;
      c.id <- 0;
      c.snt <- 0;
      c.mark <- 0
    end
    else begin
      let id = c.id + gap rng ~small:0.9 ~mid:0.07 in
      let snt =
        if Sm.bernoulli rng 0.3 then 0
        else
          c.snt
          +
          let r = Sm.float rng in
          if r < 0.8 then 1 + Sm.int rng 127
          else if r < 0.95 then 128 + Sm.int rng 127
          else 255 + Sm.int rng (1 lsl 40)
      in
      let did = id - c.id and ds = if snt = 0 then 0 else snt - c.snt in
      let form =
        if did = 1 && ds < 128 then 0
        else if did >= 255 then 2
        else if ds >= 255 then 3
        else 1
      in
      forms.(form) <- forms.(form) + 1;
      U.append log s ~id ~snt;
      c.ids.(c.tl) <- id;
      c.snts.(c.tl) <- snt;
      c.tl <- c.tl + 1;
      c.id <- id;
      if snt > 0 then c.snt <- snt
    end;
    longest := max !longest (c.tl - c.hd);
    check_chan log s c
  done;
  (* a FIFO violation is refused and leaves the log as it was *)
  let c = model.(0) in
  (match U.append log 0 ~id:c.id ~snt:0 with
  | () -> Alcotest.fail "a repeated id was logged"
  | exception Failure _ -> ());
  check_chan log 0 c;
  Array.iteri (fun s c -> check_chan log s c) model;
  (* about two bytes a record: the longest log reached 4 KB blocks *)
  if !longest < 4_000 then Alcotest.failf "longest log %d records" !longest;
  (* every form was drawn often enough to land on block boundaries *)
  Array.iteri
    (fun i n ->
      if n < 100 then Alcotest.failf "record form %d drawn only %d times" i n)
    forms

let suite = [ Alcotest.test_case "model over four channels" `Quick test_model ]
