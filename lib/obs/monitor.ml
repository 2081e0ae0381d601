include Amac.Compliance
