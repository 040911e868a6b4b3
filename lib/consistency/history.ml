type id = int * int

let entry_id = function
  | Oat.Ghost.Write w -> (w.wnode, w.windex)
  | Oat.Ghost.Combine c -> (c.cnode, c.cindex)

let extend_with_all_writes log ~all_logs ~self =
  let present = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace present (entry_id e) ()) log;
  let extra = ref [] in
  Array.iteri
    (fun v vlog ->
      if v <> self then
        List.iter
          (fun e ->
            match e with
            | Oat.Ghost.Write _ ->
              let id = entry_id e in
              if not (Hashtbl.mem present id) then begin
                Hashtbl.replace present id ();
                extra := e :: !extra
              end
            | Oat.Ghost.Combine _ -> ())
          vlog)
    all_logs;
  log @ List.rev !extra

let own_requests log ~self =
  List.filter
    (fun e ->
      match e with
      | Oat.Ghost.Write w -> w.wnode = self
      | Oat.Ghost.Combine c -> c.cnode = self)
    log

let write_args all_logs =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun log ->
      List.iter
        (fun e ->
          match e with
          | Oat.Ghost.Write w -> Hashtbl.replace tbl (entry_id e) w.warg
          | Oat.Ghost.Combine _ -> ())
        log)
    all_logs;
  tbl
