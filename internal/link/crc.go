package link

// CRC16 computes the CRC-16/CCITT-FALSE checksum (polynomial 0x1021, init
// 0xFFFF), the frame-level integrity check on uplink payloads.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
