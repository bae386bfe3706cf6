package snapshot

// Reframe re-wraps payload in img's header with a freshly computed CRC, so
// tests can hand Load a crafted payload that passes the checksum.
func Reframe(img, payload []byte) ([]byte, error) {
	meta, rootType, _, err := readHeader(img)
	if err != nil {
		return nil, err
	}
	return frame(rootType, meta, payload), nil
}

// Payload returns img's CRC-verified payload.
func Payload(img []byte) ([]byte, error) {
	_, _, payload, err := readHeader(img)
	return payload, err
}
