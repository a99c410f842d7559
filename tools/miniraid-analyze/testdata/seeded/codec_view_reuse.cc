// Seeded defect: the codec-buffer reuse bug the view-escape pass exists to
// catch. A frame reader decodes length-prefixed records out of a transport
// into a function-local scratch buffer, then stashes a string_view of the
// payload in a field "to avoid a copy". The buffer dies (or is reused for
// the next frame) the moment ReadNext returns — every later use of
// payload() reads freed or overwritten memory. analyzer_test requires the
// view-escape pass to flag it, and no other rule to fire.
#include <cstdint>
#include <string>
#include <string_view>

class Transport {
 public:
  std::string ReadRecord();
};

class FrameReader {
 public:
  explicit FrameReader(Transport* transport) : transport_(transport) {}

  // BUG: payload_ points into `scratch`, which is destroyed on return.
  bool ReadNext() {
    std::string scratch = transport_->ReadRecord();
    std::string_view payload(scratch);
    payload_ = payload;
    return !scratch.empty();
  }

  std::string_view payload() const { return payload_; }

 private:
  Transport* transport_;
  std::string_view payload_;
  uint64_t frames_read_ = 0;
};
