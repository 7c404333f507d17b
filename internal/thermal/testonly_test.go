package thermal

// TempC implements Source (the hottest node's temperature).
func (h *NetworkHottest) TempC() float64 {
	_, hot := h.net.Hottest()
	return hot
}
