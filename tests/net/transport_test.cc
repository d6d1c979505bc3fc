// Transport layer unit tests: the InProc and Unix-socket fabrics against
// the Connection/Listener contract, ReadFull's EOF semantics, the wire
// frame codec, and the FaultTransport decorator's seeded single-shot
// fault execution.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "encoding/varint.h"
#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/temp_dir.h"

namespace ngram::net {
namespace {

/// Accepts one connection on `listener` in a background thread and echoes
/// everything it reads until EOF.
std::thread StartEchoPeer(Listener* listener) {
  return std::thread([listener] {
    std::unique_ptr<Connection> conn;
    if (!listener->Accept(&conn).ok()) {
      return;
    }
    char buf[4096];
    for (;;) {
      size_t got = 0;
      if (!conn->Read(buf, sizeof(buf), &got).ok() || got == 0) {
        return;
      }
      if (!conn->Write(buf, got).ok()) {
        return;
      }
    }
  });
}

/// The fabric-independent contract, run against both transports.
void RoundTrip(Transport* transport, const std::string& address) {
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport->Listen(address, &listener).ok());
  std::thread peer = StartEchoPeer(listener.get());

  std::unique_ptr<Connection> conn;
  ASSERT_TRUE(transport->Connect(address, &conn).ok());
  const std::string message = "hello over the fabric";
  ASSERT_TRUE(conn->Write(message.data(), message.size()).ok());
  std::string echoed(message.size(), '\0');
  ASSERT_TRUE(ReadFull(conn.get(), echoed.data(), echoed.size()).ok());
  EXPECT_EQ(echoed, message);

  conn.reset();  // Peer sees EOF and exits.
  peer.join();
  listener->Shutdown();
}

TEST(InProcTransportTest, EchoRoundTrip) {
  InProcTransport transport;
  RoundTrip(&transport, "echo");
}

TEST(SocketTransportTest, EchoRoundTrip) {
  auto dir = TempDir::Create("sock-echo");
  ASSERT_TRUE(dir.ok());
  SocketTransport transport;
  RoundTrip(&transport, (dir->path() / "echo.sock").string());
}

TEST(InProcTransportTest, ConnectToUnboundAddressIsNotFound) {
  InProcTransport transport;
  std::unique_ptr<Connection> conn;
  EXPECT_TRUE(transport.Connect("nobody", &conn).IsNotFound());
}

TEST(SocketTransportTest, ConnectToUnboundAddressIsNotFound) {
  auto dir = TempDir::Create("sock-none");
  ASSERT_TRUE(dir.ok());
  SocketTransport transport;
  std::unique_ptr<Connection> conn;
  EXPECT_TRUE(
      transport.Connect((dir->path() / "none.sock").string(), &conn)
          .IsNotFound());
}

TEST(InProcTransportTest, DoubleListenIsAlreadyExists) {
  InProcTransport transport;
  std::unique_ptr<Listener> first;
  ASSERT_TRUE(transport.Listen("addr", &first).ok());
  std::unique_ptr<Listener> second;
  EXPECT_EQ(transport.Listen("addr", &second).code(),
            StatusCode::kAlreadyExists);
  // After shutdown the name is reclaimable.
  first->Shutdown();
  EXPECT_TRUE(transport.Listen("addr", &second).ok());
}

TEST(InProcTransportTest, ShutdownUnblocksAccept) {
  InProcTransport transport;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport.Listen("idle", &listener).ok());
  std::thread waiter([&listener] {
    std::unique_ptr<Connection> conn;
    EXPECT_EQ(listener->Accept(&conn).code(), StatusCode::kCancelled);
  });
  listener->Shutdown();
  waiter.join();
}

TEST(SocketTransportTest, ShutdownUnblocksAccept) {
  auto dir = TempDir::Create("sock-shut");
  ASSERT_TRUE(dir.ok());
  SocketTransport transport;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(
      transport.Listen((dir->path() / "s.sock").string(), &listener).ok());
  std::thread waiter([&listener] {
    std::unique_ptr<Connection> conn;
    EXPECT_EQ(listener->Accept(&conn).code(), StatusCode::kCancelled);
  });
  listener->Shutdown();
  waiter.join();
}

TEST(InProcTransportTest, AbortFailsBothEndpoints) {
  InProcTransport transport;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport.Listen("abort", &listener).ok());
  std::unique_ptr<Connection> accepted;
  std::thread peer([&] { ASSERT_TRUE(listener->Accept(&accepted).ok()); });
  std::unique_ptr<Connection> conn;
  ASSERT_TRUE(transport.Connect("abort", &conn).ok());
  peer.join();

  // A reader parked on the peer is unblocked with an error when the
  // dialing side aborts — the server-shutdown path.
  std::thread reader([&] {
    char byte = 0;
    size_t got = 0;
    EXPECT_FALSE(accepted->Read(&byte, 1, &got).ok());
  });
  conn->Abort();
  reader.join();
  EXPECT_FALSE(conn->Write("x", 1).ok());
  listener->Shutdown();
}

TEST(TransportTest, ReadFullTreatsEarlyEofAsCorruption) {
  InProcTransport transport;
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport.Listen("eof", &listener).ok());
  std::unique_ptr<Connection> accepted;
  std::thread peer([&] { ASSERT_TRUE(listener->Accept(&accepted).ok()); });
  std::unique_ptr<Connection> conn;
  ASSERT_TRUE(transport.Connect("eof", &conn).ok());
  peer.join();

  ASSERT_TRUE(accepted->Write("abc", 3).ok());
  accepted.reset();  // Close after 3 bytes.

  // Mid-frame EOF: got 3 of 8 -> Corruption even with eof_ok.
  char buf[8];
  const Status st = ReadFull(conn.get(), buf, sizeof(buf),
                             /*eof_ok=*/true);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // EOF before the first byte with eof_ok: clean.
  bool clean_eof = false;
  ASSERT_TRUE(
      ReadFull(conn.get(), buf, sizeof(buf), /*eof_ok=*/true, &clean_eof)
          .ok());
  EXPECT_TRUE(clean_eof);
  // ... and without eof_ok: Corruption.
  EXPECT_TRUE(ReadFull(conn.get(), buf, sizeof(buf)).IsCorruption());
  listener->Shutdown();
}

// ------------------------------------------------------------ wire codec

/// One connected pair over the inproc fabric, for codec tests.
struct Pipe {
  InProcTransport transport;
  std::unique_ptr<Listener> listener;
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;

  Pipe() {
    EXPECT_TRUE(transport.Listen("pipe", &listener).ok());
    std::thread peer([this] {
      EXPECT_TRUE(listener->Accept(&server).ok());
    });
    EXPECT_TRUE(transport.Connect("pipe", &client).ok());
    peer.join();
  }
};

TEST(WireTest, FrameRoundTrip) {
  Pipe pipe;
  const std::string payload = "segment bytes \x00\x01\x02 and more";
  ASSERT_TRUE(
      WriteFrame(pipe.client.get(), MessageType::kFetchData, payload).ok());
  MessageType type{};
  std::string got;
  ASSERT_TRUE(ReadFrame(pipe.server.get(), &type, &got).ok());
  EXPECT_EQ(type, MessageType::kFetchData);
  EXPECT_EQ(got, payload);
}

TEST(WireTest, DamagedPayloadFailsTheFrameCrc) {
  Pipe pipe;
  // Hand-corrupt a frame: encode, flip one payload bit, send raw.
  const std::string payload = "payload under test";
  ASSERT_TRUE(
      WriteFrame(pipe.client.get(), MessageType::kFetchData, payload).ok());
  std::string frame(kFrameHeaderBytes + payload.size(), '\0');
  ASSERT_TRUE(
      ReadFull(pipe.server.get(), frame.data(), frame.size()).ok());
  frame[kFrameHeaderBytes + 4] ^= 0x10;
  ASSERT_TRUE(pipe.server->Write(frame.data(), frame.size()).ok());
  MessageType type{};
  std::string got;
  const Status st = ReadFrame(pipe.client.get(), &type, &got);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("CRC"), std::string::npos) << st.ToString();
}

TEST(WireTest, DamagedLengthFieldFailsTheHeaderCrcNotHangs) {
  Pipe pipe;
  // Flip a bit in payload_len (header byte 5): without the header CRC the
  // reader would trust the inflated length and block forever waiting for
  // payload bytes the peer never writes.
  const std::string payload = "short";
  ASSERT_TRUE(
      WriteFrame(pipe.client.get(), MessageType::kFetchData, payload).ok());
  std::string frame(kFrameHeaderBytes + payload.size(), '\0');
  ASSERT_TRUE(
      ReadFull(pipe.server.get(), frame.data(), frame.size()).ok());
  frame[5] ^= 0x40;  // payload_len 5 -> 5 + (0x40 << 8).
  ASSERT_TRUE(pipe.server->Write(frame.data(), frame.size()).ok());
  MessageType type{};
  std::string got;
  const Status st = ReadFrame(pipe.client.get(), &type, &got);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("header CRC"), std::string::npos)
      << st.ToString();
}

TEST(WireTest, GarbageHeaderIsCorruptionNotAHang) {
  Pipe pipe;
  const std::string junk = "this is not a frame header at all";
  ASSERT_TRUE(pipe.client->Write(junk.data(), junk.size()).ok());
  MessageType type{};
  std::string got;
  EXPECT_TRUE(ReadFrame(pipe.server.get(), &type, &got).IsCorruption());
}

TEST(WireTest, PublishRequestRoundTrip) {
  PublishRequest req;
  req.task = 7;
  req.generation = 3;
  WireRun run;
  run.path = "/tmp/some/dir/map-7-a0-000000.run";
  run.segments = {{0, 128, 4}, {128, 0, 0}, {128, 77, 2}};
  req.runs = {run, run};
  req.runs[1].path = "/tmp/some/dir/map-7-a0-000001.run";

  std::string encoded;
  EncodePublishRequest(req, &encoded);
  PublishRequest decoded;
  ASSERT_TRUE(DecodePublishRequest(encoded, &decoded));
  EXPECT_EQ(decoded.task, req.task);
  EXPECT_EQ(decoded.generation, req.generation);
  ASSERT_EQ(decoded.runs.size(), 2u);
  EXPECT_EQ(decoded.runs[0].path, req.runs[0].path);
  EXPECT_EQ(decoded.runs[1].path, req.runs[1].path);
  ASSERT_EQ(decoded.runs[0].segments.size(), 3u);
  EXPECT_EQ(decoded.runs[0].segments[2].offset, 128u);
  EXPECT_EQ(decoded.runs[0].segments[2].length, 77u);
  EXPECT_EQ(decoded.runs[0].segments[2].num_records, 2u);

  // Truncated payloads decode to false, never to a partial manifest.
  EXPECT_FALSE(DecodePublishRequest(
      Slice(encoded.data(), encoded.size() / 2), &decoded));
}

TEST(WireTest, ImpossibleRunCountIsRejectedBeforeReserving) {
  // A count the payload cannot possibly hold is malformed: decoding must
  // refuse it before it sizes a reserve() — a 5-byte payload must not
  // make the server hold room for a million runs.
  std::string payload;
  PutVarint64(&payload, 0);        // task
  PutVarint64(&payload, 0);        // generation
  PutVarint64(&payload, 1u << 20);  // num_runs; no run follows
  ASSERT_EQ(payload.size(), 5u);
  PublishRequest decoded;
  EXPECT_FALSE(DecodePublishRequest(payload, &decoded));
  EXPECT_LT(decoded.runs.capacity(), 16u);
}

TEST(WireTest, FetchRequestRoundTrip) {
  FetchRequest req;
  req.task = 11;
  req.generation = 2;
  req.run_index = 5;
  req.partition = 9;
  std::string encoded;
  EncodeFetchRequest(req, &encoded);
  FetchRequest decoded;
  ASSERT_TRUE(DecodeFetchRequest(encoded, &decoded));
  EXPECT_EQ(decoded.task, 11u);
  EXPECT_EQ(decoded.generation, 2u);
  EXPECT_EQ(decoded.run_index, 5u);
  EXPECT_EQ(decoded.partition, 9u);
}

TEST(WireTest, ErrorFramesCarryTheStatusAcross) {
  std::string encoded;
  EncodeError(Status::NotFound("no such partition"), &encoded);
  const Status decoded = DecodeError(encoded);
  EXPECT_TRUE(decoded.IsNotFound());
  EXPECT_NE(decoded.message().find("no such partition"), std::string::npos);
}

// -------------------------------------------------------- fault transport

TEST(FaultTransportTest, PlansAreDeterministicAndNeverNone) {
  for (uint64_t seed = 0; seed < 128; ++seed) {
    const TransportFaultPlan a = TransportFaultPlan::FromSeed(seed);
    const TransportFaultPlan b = TransportFaultPlan::FromSeed(seed);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.bit, b.bit);
    EXPECT_NE(a.kind, TransportFaultPlan::Kind::kNone);
    EXPECT_GE(a.op, 1u);
  }
}

TEST(FaultTransportTest, DropFailsTheTriggeringReadExactlyOnce) {
  InProcTransport base;
  TransportFaultPlan plan;
  plan.kind = TransportFaultPlan::Kind::kDrop;
  plan.op = 2;
  FaultTransport transport(&base, plan);

  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport.Listen("drop", &listener).ok());
  std::unique_ptr<Connection> server;
  std::thread peer([&] { ASSERT_TRUE(listener->Accept(&server).ok()); });
  std::unique_ptr<Connection> client;
  ASSERT_TRUE(transport.Connect("drop", &client).ok());
  peer.join();

  ASSERT_TRUE(server->Write("abcdef", 6).ok());
  char byte = 0;
  size_t got = 0;
  // Read 1: passes. Read 2: injected IOError. Read 3+: passes again.
  EXPECT_TRUE(client->Read(&byte, 1, &got).ok());
  EXPECT_FALSE(transport.fault_fired());
  EXPECT_TRUE(client->Read(&byte, 1, &got).IsIOError());
  EXPECT_TRUE(transport.fault_fired());
  EXPECT_TRUE(client->Read(&byte, 1, &got).ok());
  listener->Shutdown();
}

TEST(FaultTransportTest, TruncateEndsTheStreamEarly) {
  InProcTransport base;
  TransportFaultPlan plan;
  plan.kind = TransportFaultPlan::Kind::kTruncate;
  plan.op = 1;
  FaultTransport transport(&base, plan);

  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport.Listen("trunc", &listener).ok());
  std::unique_ptr<Connection> server;
  std::thread peer([&] { ASSERT_TRUE(listener->Accept(&server).ok()); });
  std::unique_ptr<Connection> client;
  ASSERT_TRUE(transport.Connect("trunc", &client).ok());
  peer.join();

  ASSERT_TRUE(server->Write("abc", 3).ok());
  char buf[3];
  size_t got = 99;
  ASSERT_TRUE(client->Read(buf, sizeof(buf), &got).ok());
  EXPECT_EQ(got, 0u) << "truncation must look like an orderly EOF";
  EXPECT_TRUE(transport.fault_fired());
  // The bytes are still there afterwards; the fault was single-shot.
  ASSERT_TRUE(client->Read(buf, sizeof(buf), &got).ok());
  EXPECT_EQ(got, 3u);
  listener->Shutdown();
}

TEST(FaultTransportTest, BitFlipDamagesExactlyOneBitSilently) {
  InProcTransport base;
  TransportFaultPlan plan;
  plan.kind = TransportFaultPlan::Kind::kBitFlip;
  plan.op = 1;
  plan.bit = 9;  // Bit 1 of byte 1.
  FaultTransport transport(&base, plan);

  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(transport.Listen("flip", &listener).ok());
  std::unique_ptr<Connection> server;
  std::thread peer([&] { ASSERT_TRUE(listener->Accept(&server).ok()); });
  std::unique_ptr<Connection> client;
  ASSERT_TRUE(transport.Connect("flip", &client).ok());
  peer.join();

  const std::string sent = "AAAA";
  ASSERT_TRUE(server->Write(sent.data(), sent.size()).ok());
  std::string received(sent.size(), '\0');
  ASSERT_TRUE(
      ReadFull(client.get(), received.data(), received.size()).ok());
  EXPECT_TRUE(transport.fault_fired());
  EXPECT_NE(received, sent);
  size_t flipped_bits = 0;
  for (size_t i = 0; i < sent.size(); ++i) {
    unsigned char diff =
        static_cast<unsigned char>(received[i] ^ sent[i]);
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1u);
  listener->Shutdown();
}

}  // namespace
}  // namespace ngram::net
