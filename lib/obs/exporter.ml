(* Live metrics endpoint.

   At each point of the sampling grid the executor renders its live
   registry to OpenMetrics text and [publish]es the string; a dedicated
   domain sits in [accept] and writes the latest published payload to
   every connection, then closes it. The protocol is deliberately dumb —
   connect, read to EOF — so a scrape is one `nc` away and the serving
   domain never blocks on a slow reader parsing anything. The executor's
   own path pays the rendering and one [Atomic.set] per grid point. *)

type address = Tcp of string * int | Unix_path of string

let address_of_string s =
  if String.length s >= 5 && String.equal (String.sub s 0 5) "unix:" then
    let path = String.sub s 5 (String.length s - 5) in
    if String.equal path "" then Error "empty unix socket path"
    else Ok (Unix_path path)
  else
    match String.rindex_opt s ':' with
    | None -> (
        match int_of_string_opt s with
        | Some port when port >= 0 && port < 65536 -> Ok (Tcp ("127.0.0.1", port))
        | _ -> Error (Printf.sprintf "bad listen address %S (want PORT, HOST:PORT or unix:PATH)" s))
    | Some i -> (
        let host = String.sub s 0 i in
        let port_s = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port_s with
        | Some port when port >= 0 && port < 65536 ->
            Ok (Tcp ((if String.equal host "" then "127.0.0.1" else host), port))
        | _ -> Error (Printf.sprintf "bad port in listen address %S" s))

let pp_address ppf = function
  | Tcp (host, port) -> Fmt.pf ppf "%s:%d" host port
  | Unix_path path -> Fmt.pf ppf "unix:%s" path

type t = {
  address : address; (* with the actual bound port for Tcp (_, 0) *)
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr; (* self-pipe: [stop] writes, [serve] selects *)
  wake_w : Unix.file_descr;
  payload : string Atomic.t;
  stopping : bool Atomic.t;
  server : unit Domain.t;
}

let empty_payload = "# EOF\n"

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

(* A blocked accept(2) is NOT interrupted by another thread closing the
   listening fd on Linux, so the loop parks in select over the listen fd
   and a self-pipe instead; [stop] writes one byte to the pipe and the
   domain exits at the next wakeup. *)
let serve ~listen_fd ~wake_r ~payload ~stopping =
  let rec loop () =
    if Atomic.get stopping then ()
    else
      match Unix.select [ listen_fd; wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
      | ready, _, _ ->
          if Atomic.get stopping then ()
          else if List.mem listen_fd ready then (
            match Unix.accept listen_fd with
            | exception Unix.Unix_error _ ->
                (* any accept failure ends the server rather than spinning *)
                ()
            | conn, _ ->
                (try write_all conn (Atomic.get payload)
                 with Unix.Unix_error _ -> ());
                (try Unix.close conn with Unix.Unix_error _ -> ());
                loop ())
          else loop ()
  in
  loop ()

(* [address]'s socket domain and socket address, resolving a host name:
   what [start] binds and [fetch] connects to. *)
let sockaddr = function
  | Unix_path path -> Ok (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
      match
        try Ok (Unix.inet_addr_of_string host)
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
              Error (Printf.sprintf "cannot resolve host %S" host)
          | h -> Ok h.Unix.h_addr_list.(0))
      with
      | Error e -> Error e
      | Ok inet -> Ok (Unix.PF_INET, Unix.ADDR_INET (inet, port)))

let start address =
  let bind_result =
    match sockaddr address with
    | Error e -> Error e
    | Ok (domain, sa) -> (
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        try
          (match address with
          | Unix_path path -> (
              (* A stale socket file from a previous run blocks bind. *)
              match Unix.stat path with
              | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
              | _ -> ()
              | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
          | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
          Unix.bind fd sa;
          Unix.listen fd 16;
          let bound =
            match (address, Unix.getsockname fd) with
            | Tcp (host, _), Unix.ADDR_INET (_, port) -> Tcp (host, port)
            | _ -> address
          in
          Ok (fd, bound)
        with Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Fmt.str "cannot listen on %a: %s" pp_address address
               (Unix.error_message e)))
  in
  match bind_result with
  | Error e -> Error e
  | Ok (listen_fd, address) ->
      let wake_r, wake_w = Unix.pipe () in
      let payload = Atomic.make empty_payload in
      let stopping = Atomic.make false in
      let server =
        Domain.spawn (fun () -> serve ~listen_fd ~wake_r ~payload ~stopping)
      in
      Ok { address; listen_fd; wake_r; wake_w; payload; stopping; server }

let publish t text = Atomic.set t.payload text

let endpoint t = Fmt.str "%a" pp_address t.address

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    Domain.join t.server;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.wake_r; t.wake_w ];
    match t.address with
    | Unix_path path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end

(* Client side: connect, read to EOF. Used by pstream_obs scrape / top
   and the CI smoke. *)
let fetch address =
  match sockaddr address with
  | Error e -> Error e
  | Ok (domain, sa) -> (
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd sa;
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 8192 in
        let rec drain () =
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
          end
        in
        drain ();
        Unix.close fd;
        Ok (Buffer.contents buf)
      with Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Fmt.str "scrape of %a failed: %s" pp_address address
             (Unix.error_message e)))
