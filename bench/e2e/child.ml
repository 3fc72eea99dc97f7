(* Run one child process to completion: stdout through a pipe (its EOF
   marks the exit to within a select wake-up, so wall time is not rounded
   to the polling period), stderr to a file, and the child's peak resident
   set (VmHWM) polled from /proc every 10 ms. A child still running at the
   deadline is killed, and it is always reaped before [run] returns. *)

type outcome = {
  status : Unix.process_status;
  wall_s : float;  (** spawn to reaped exit *)
  peak_rss_kb : int;  (** 0 when no poll succeeded *)
  stdout : string;
  timed_out : bool;
}

let vm_hwm_kb pid =
  match Host.read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:"VmHWM:" l then
               Scanf.sscanf_opt (Host.field_value l) "%d kB" Fun.id
             else None)
      |> Option.value ~default:0

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let run ~stderr_path ~deadline argv =
  let err_fd =
    Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Spans.now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close err_fd)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin wr err_fd)
  in
  let buf = Buffer.create 8192 and chunk = Bytes.create 65536 in
  let peak = ref (vm_hwm_kb pid) and last_poll = ref t0 in
  let timed_out = ref false and eof = ref false in
  Fun.protect
    ~finally:(fun () -> Unix.close rd)
    (fun () ->
      while not !eof do
        (match restart_on_eintr (fun () -> Unix.select [ rd ] [] [] 0.01) with
        | [], _, _ -> ()
        | _ ->
            let n = restart_on_eintr (fun () -> Unix.read rd chunk 0 (Bytes.length chunk)) in
            if n = 0 then eof := true else Buffer.add_subbytes buf chunk 0 n);
        let now = Spans.now_ns () in
        if (not !eof) && now - !last_poll >= 10_000_000 then begin
          last_poll := now;
          peak := max !peak (vm_hwm_kb pid)
        end;
        if (not !eof) && Unix.gettimeofday () > deadline then begin
          timed_out := true;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          eof := true
        end
      done);
  let _, status = restart_on_eintr (fun () -> Unix.waitpid [] pid) in
  let wall_s = float_of_int (Spans.now_ns () - t0) /. 1e9 in
  { status; wall_s; peak_rss_kb = !peak; stdout = Buffer.contents buf; timed_out = !timed_out }

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
